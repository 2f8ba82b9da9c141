"""Parallel scenario runner: sweep many registry problems concurrently.

Each job runs in its **own worker process** (one process per job, up to
``processes`` concurrent), which buys two properties a shared pool cannot
give:

* *failure isolation* — a crashing or memory-exploding job takes down only
  its process; the sweep records the failure and keeps going;
* *per-job timeouts* — a stuck proof search (the ``"hard"`` registry entries
  would search for hours) is ``terminate()``-d at its deadline instead of
  wedging a pool worker forever.

Jobs cross the process boundary as registry *names* plus a small options
dict, and come back as flat :class:`JobOutcome` records (strings and numbers
only) — no AST pickling on the hot path.  Workers share results through the
cache's persistent disk tier when ``cache_dir`` is set: the first worker to
synthesize a specification stores it; every later worker (and the parent
process) gets a disk hit.

``processes=1`` (or a single job) runs inline in the calling process — same
code path, no multiprocessing — which is also the mode the test-suite uses
for determinism.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.nrc.expr import expr_size
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, export_obs_state, get_tracer, install_child_obs
from repro.proofs.prooftree import ProofNode
from repro.proofs.search import ProofSearch, SearchTables
from repro.proofs.sequents import Sequent
from repro.service import api
from repro.service.cache import SynthesisCache
from repro.service.pipeline import PipelineReport, SynthesisPipeline
from repro.service.registry import EXPECTED_OK, ProblemRegistry, RegistryEntry, default_registry
from repro.synthesis.implicit_to_explicit import SynthesisResult
from repro.witness.incremental import warm_tables_from_store

logger = logging.getLogger(__name__)

#: Default verification family size when a sweep verifies (``scale`` rows).
DEFAULT_VERIFY_SCALE = api.DEFAULT_VERIFY_SCALE


@dataclass
class JobOutcome:
    """Flat, picklable record of one sweep job."""

    name: str
    status: str  # "ok" | "error" | "timeout"
    seconds: float
    expected: str = EXPECTED_OK
    cache_tier: str = "off"
    expression: Optional[str] = None
    expression_size: Optional[int] = None
    proof_size: Optional[int] = None
    verified: Optional[bool] = None
    error: Optional[str] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Telemetry riding home from a worker child: finished span dicts and a
    #: counter/histogram snapshot.  Absorbed (and cleared) by the parent's
    #: tracer/registry as soon as the outcome crosses the pipe — they never
    #: reach the ``SweepOutcome`` wire contract.
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unexpected_failure(self) -> bool:
        """A failure on an entry that was expected to synthesize cleanly."""
        return self.status != "ok" and self.expected == EXPECTED_OK

    def to_api(self) -> api.SweepOutcome:
        """The typed wire rendering of this outcome (:mod:`repro.service.api`)."""
        payload = dict(self.__dict__)
        payload.pop("spans", None)
        payload.pop("metrics", None)
        return api.SweepOutcome(**payload)

    def as_dict(self) -> Dict[str, object]:
        return self.to_api().to_json_dict()


@dataclass
class SweepSummary:
    """All job outcomes plus aggregate counters."""

    outcomes: List[JobOutcome]
    wall_seconds: float
    processes: int

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_tier in ("memory", "disk"))

    @property
    def unexpected_failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.unexpected_failure]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures

    def to_api(self) -> api.SweepResponse:
        """The typed wire rendering of this sweep (:mod:`repro.service.api`)."""
        return api.SweepResponse(
            wall_seconds=round(self.wall_seconds, 6),
            processes=self.processes,
            counts=self.counts,
            cache_hits=self.cache_hits,
            ok=self.ok,
            jobs=tuple(outcome.to_api() for outcome in self.outcomes),
        )

    def as_dict(self) -> Dict[str, object]:
        return self.to_api().to_json_dict()


# ----------------------------------------------------- warm-start transposition
#: Per-process snapshot of witness-derived success entries, keyed by witness
#: store root.  Warmed once per (process, store) from the disk tier, then
#: copied into every fresh search's tables — so a worker assigned a problem
#: any fleet peer already proved starts with those subproofs in hand.
_WARM_SUCCESSES: Dict[str, Dict[Sequent, ProofNode]] = {}


def warm_successes_for(cache: Optional[SynthesisCache]) -> Optional[Dict[Sequent, ProofNode]]:
    """The witness-warmed success table for ``cache``'s disk tier (memoized).

    Only *success* entries are shared: a checked proof is sound under any
    search configuration, whereas failure/closure entries are relative to
    the search's own budgets (:class:`~repro.proofs.search.SearchTables`).
    Warm-up is best-effort — any store problem logs and yields an empty map.
    """
    if cache is None or cache.witnesses is None:
        return None
    key = str(cache.witnesses.root)
    warmed = _WARM_SUCCESSES.get(key)
    if warmed is None:
        tables = SearchTables()
        try:
            warm_tables_from_store(cache.witnesses, tables)
        except Exception:  # noqa: BLE001 - warm-up must never fail a job
            logger.warning("witness warm-up from %s failed", key, exc_info=True)
        warmed = tables.successes
        _WARM_SUCCESSES[key] = warmed
    return warmed


def warmed_search_factory(
    depth: Optional[int], cache: Optional[SynthesisCache]
) -> Callable[[], ProofSearch]:
    """A search factory whose tables start from the witness-warmed successes."""
    warmed = warm_successes_for(cache)

    def factory() -> ProofSearch:
        search = ProofSearch(max_depth=depth) if depth is not None else ProofSearch()
        if warmed:
            search.tables.successes.update(warmed)
        return search

    return factory


# ----------------------------------------------------- typed request execution
def resolve_request_entry(
    request: api.SynthesizeRequest, registry: Optional[ProblemRegistry] = None
) -> RegistryEntry:
    """The registry entry a request addresses.

    A ``spec_text`` request parses the textual problem into an ad-hoc entry
    (named after the problem header, tagged ``spec_text``); a parse failure
    surfaces as the ``parse_error`` taxonomy code with position detail.
    Registry-name requests resolve as before (``unknown_problem`` on a miss).
    """
    if request.spec_text is not None:
        from repro.specs.lang import SpecParseError, parse_problem

        try:
            problem = parse_problem(request.spec_text)
        except SpecParseError as exc:
            raise api.parse_error(str(exc), **exc.position()) from exc
        return RegistryEntry(
            name=problem.name,
            factory=lambda: problem,
            description="textual spec submission",
            tags=("spec_text",),
        )
    registry = registry or default_registry()
    try:
        return registry.get(request.problem)
    except KeyError as exc:
        raise api.unknown_problem(exc.args[0]) from exc


def execute_synthesize_request(
    request: api.SynthesizeRequest,
    registry: Optional[ProblemRegistry] = None,
    cache: Optional[SynthesisCache] = None,
) -> Tuple[api.SynthesisResult, SynthesisResult, PipelineReport]:
    """Run one typed :class:`~repro.service.api.SynthesizeRequest` inline.

    The single execution body behind every transport: the CLI's
    :class:`~repro.service.server.SynthesisService` calls it in-process,
    worker processes call it via :func:`run_request_in_process`.  Failures
    surface as the structured :class:`~repro.service.api.ApiError` taxonomy —
    never raw registry ``KeyError`` or :class:`~repro.errors.ReproError`.

    Returns ``(wire_response, result_object, report)`` so callers can both
    serialize the outcome and adopt the synthesized AST into their own cache.
    """
    registry = registry or default_registry()
    entry = resolve_request_entry(request, registry)
    if request.cache_dir:
        try:
            cache = SynthesisCache(disk_dir=request.cache_dir)
        except OSError as exc:
            raise api.invalid_request(
                f"cannot use cache dir {request.cache_dir!r}: {exc}"
            ) from exc
    depth = entry.max_depth if request.max_depth is None else request.max_depth
    pipeline = SynthesisPipeline(cache=cache, search_factory=warmed_search_factory(depth, cache))
    assignments = None
    if request.verify_scale and entry.instances is not None:
        assignments = entry.instances(request.verify_scale)
    try:
        report = pipeline.run(entry.problem(), assignments, ancestor=request.ancestor)
    except api.ApiError:
        raise
    except ReproError as exc:
        raise api.synthesis_failure(exc, entry.expected) from exc
    response = report.to_response(include_raw=request.include_raw)
    return response, report.result, report


def _request_child(payload: Dict[str, object], options: Dict[str, object], conn) -> None:
    """Worker-process entry point for one typed request.

    Ships back a tagged tuple whose last two elements are always the child's
    finished trace spans and metric snapshot: ``("ok", response_json,
    result_ast, spans, metrics)`` on success (the AST rides along so the
    parent can warm its memory tier), ``("api_error", error_json, spans,
    metrics)`` for structured failures, and ``("internal_error", message,
    spans, metrics)`` for anything unexpected.
    """
    install_child_obs(options.get("obs"))
    try:
        request = api.SynthesizeRequest.from_json_dict(payload)
        # Same cache policy as the CLI's in-process service: the disk tier
        # when a directory is configured, a process-local memory tier
        # otherwise — so a worker-run report shows the same stage sequence
        # ("cache-lookup: miss" included) as an inline run.
        cache_dir = options.get("cache_dir")
        cache = SynthesisCache(disk_dir=cache_dir) if cache_dir else SynthesisCache()
        with get_tracer().span(
            "worker.request", problem=request.problem or "<spec_text>", pid=os.getpid()
        ):
            response, result, _ = execute_synthesize_request(request, cache=cache)
        message: tuple = ("ok", response.to_json_dict(), result)
    except api.ApiError as exc:
        message = ("api_error", exc.to_json_dict())
    except Exception as exc:  # noqa: BLE001 - the parent re-raises as ApiError
        message = ("internal_error", f"{type(exc).__name__}: {exc}")
    conn.send(message + (get_tracer().export_all(), get_registry().snapshot()))
    conn.close()


def run_request_in_process(
    request: api.SynthesizeRequest,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    cancel=None,
    poll_interval: float = 0.05,
    trace_context: Optional[TraceContext] = None,
) -> Tuple[api.SynthesisResult, Optional[SynthesisResult]]:
    """Run ``request`` in its own worker process; block until it resolves.

    Designed to be called from an executor thread by the async job engine:
    proof search happens in a killable child (same isolation properties as
    the sweep pool), while this thread polls the result pipe, the optional
    ``cancel`` event (any object with ``is_set()``) and the deadline.  On
    timeout/cancellation the child is ``terminate()``-d and the matching
    structured :class:`~repro.service.api.ApiError` is raised.

    ``trace_context`` parents the child's spans explicitly — executor
    threads do not inherit the submitting task's contextvars, so the job
    engine passes its job span's context by hand.
    """
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    options = {"cache_dir": cache_dir, "obs": export_obs_state(trace_context)}
    process = ctx.Process(
        target=_request_child,
        args=(request.to_json_dict(), options, child_conn),
        daemon=True,
    )
    process.start()
    child_conn.close()
    deadline = None if timeout is None else time.monotonic() + timeout
    message = None
    try:
        while True:
            if parent_conn.poll(poll_interval):
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    message = None
                break
            if not process.is_alive():
                # The child may have sent its result and exited between the
                # poll above and this liveness check; drain before declaring
                # it dead (same race the sweep loop handles).
                if parent_conn.poll(0.5):
                    try:
                        message = parent_conn.recv()
                    except (EOFError, OSError):
                        message = None
                break
            if cancel is not None and cancel.is_set():
                process.terminate()
                raise api.ApiError("cancelled", "job was cancelled while running")
            if deadline is not None and time.monotonic() > deadline:
                process.terminate()
                raise api.job_timeout(timeout)
    finally:
        process.join()
        parent_conn.close()
    if message is None:
        raise api.ApiError("internal", f"worker died with exit code {process.exitcode}")
    _absorb_child_obs(message[-2], message[-1])
    kind = message[0]
    if kind == "ok":
        return api.SynthesisResult.from_json_dict(message[1]), message[2]
    if kind == "api_error":
        raise api.ApiError.from_json_dict(message[1])
    raise api.ApiError("internal", str(message[1]))


def _absorb_child_obs(spans: object, metrics: object) -> None:
    """Merge a worker child's exported telemetry into this process."""
    if isinstance(spans, list) and spans:
        get_tracer().adopt(spans)
    if isinstance(metrics, dict) and metrics:
        get_registry().merge_snapshot(metrics)


# ---------------------------------------------------------------- job bodies
def pipeline_for_entry(
    entry: RegistryEntry,
    cache_dir: Optional[str] = None,
    max_depth: Optional[int] = None,
    memory_cache: bool = False,
) -> SynthesisPipeline:
    """The one cache+search policy shared by sweep workers and the CLI.

    With ``cache_dir`` the pipeline uses the persistent disk tier (shared
    across processes); otherwise ``memory_cache`` selects between a
    process-local LRU and no cache at all — sweep workers run one problem per
    process, where an in-memory tier could never be hit, so they pass
    ``False`` and the report shows the truthful ``"off"``.
    """
    cache = None
    if cache_dir:
        cache = SynthesisCache(disk_dir=cache_dir)
    elif memory_cache:
        cache = SynthesisCache()
    depth = entry.max_depth if max_depth is None else max_depth
    return SynthesisPipeline(cache=cache, search_factory=warmed_search_factory(depth, cache))


def _execute_job(name: str, options: Dict[str, object]) -> JobOutcome:
    """Run one registry problem through a fresh pipeline (any process)."""
    registry = default_registry()
    start = time.perf_counter()
    try:
        entry = registry.get(name)
    except KeyError as exc:
        return JobOutcome(name, "error", time.perf_counter() - start, error=str(exc))
    try:
        # Everything after the name lookup is isolated: a failing cache dir,
        # instance generator or synthesis stage becomes one "error" outcome.
        pipeline = pipeline_for_entry(
            entry,
            cache_dir=options.get("cache_dir"),
            max_depth=options.get("max_depth"),
        )
        scale = int(options.get("verify_scale") or 0)
        assignments = None
        if scale and entry.instances is not None:
            assignments = entry.instances(scale)
        report = pipeline.run(entry.problem(), assignments)
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        return JobOutcome(
            name,
            "error",
            time.perf_counter() - start,
            expected=entry.expected,
            error=f"{type(exc).__name__}: {exc}",
        )
    result = report.result
    verification = report.verification
    return JobOutcome(
        name=name,
        status="ok" if verification is None or verification.ok else "error",
        seconds=time.perf_counter() - start,
        expected=entry.expected,
        cache_tier=report.cache_tier,
        expression=str(result.expression),
        expression_size=expr_size(result.expression),
        proof_size=result.proof_size,
        verified=None if verification is None else verification.ok,
        error=None if verification is None or verification.ok else "verification mismatches",
        stage_seconds={k: round(v, 6) for k, v in report.stage_seconds().items()},
    )


def _job_child(name: str, options: Dict[str, object], conn) -> None:
    """Worker-process entry point: run the job, ship the outcome back.

    The outcome carries the child's finished spans and metric snapshot; the
    parent's sweep loop absorbs them into its own tracer/registry.
    """
    install_child_obs(options.get("obs"))
    with get_tracer().span("worker.job", problem=name, pid=os.getpid()):
        outcome = _execute_job(name, options)
    outcome.spans = get_tracer().export_all()
    outcome.metrics = get_registry().snapshot()
    conn.send(outcome)
    conn.close()


def resolve_sweep_names(
    request: api.SweepRequest, registry: Optional[ProblemRegistry] = None
) -> List[str]:
    """The concrete problem list a sweep request selects.

    Centralized so the inline sweep, the async sweep engine and the fleet
    coordinator shard over *exactly* the same population — explicit names
    verbatim (duplicates preserved), ``include_all`` the full registry,
    neither the default sweepable population.
    """
    registry = registry or default_registry()
    if request.problems:
        return list(request.problems)
    if request.include_all:
        return registry.names()
    return [entry.name for entry in registry.sweepable()]


# ------------------------------------------------------------------ the pool
def run_sweep(
    names: Optional[Sequence[str]] = None,
    registry: Optional[ProblemRegistry] = None,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    max_depth: Optional[int] = None,
    verify_scale: int = 0,
) -> SweepSummary:
    """Sweep ``names`` (default: every entry expected to synthesize) in parallel.

    ``timeout`` is per job, in seconds; a job past its deadline is terminated
    and recorded as ``"timeout"``.  Enforcing a deadline requires a killable
    process, so any sweep with a timeout takes the one-process-per-job path
    even for a single job; only timeout-less sweeps run inline.
    ``verify_scale`` > 0 additionally runs the batched verification stage on
    that many generated instances per problem (entries without an instance
    builder skip verification).
    """
    registry = registry or default_registry()
    if names is None:
        names = [entry.name for entry in registry.sweepable()]
    names = list(names)
    options: Dict[str, object] = {
        "cache_dir": cache_dir,
        "max_depth": max_depth,
        "verify_scale": verify_scale,
        # Trace parentage for worker children: the sweep runs under whatever
        # span is current here (e.g. a fleet shard span).
        "obs": export_obs_state(),
    }
    if processes is None:
        processes = min(len(names), os.cpu_count() or 1) or 1
    processes = max(1, min(processes, len(names) or 1))
    start = time.perf_counter()

    if timeout is None and (processes <= 1 or len(names) <= 1):
        outcomes = [_execute_job(name, options) for name in names]
        return SweepSummary(outcomes, time.perf_counter() - start, 1)

    ctx = multiprocessing.get_context()
    # Jobs are tracked by position, not name, so sweeping the same name twice
    # keeps both outcomes.  pop() takes jobs in submission order.
    pending = list(reversed(list(enumerate(names))))
    running: Dict[object, tuple] = {}
    outcomes_by_index: Dict[int, JobOutcome] = {}

    def _drain(conn, grace: float = 0.5) -> Optional[JobOutcome]:
        try:
            if conn.poll(grace):
                return conn.recv()
        except (EOFError, OSError):
            pass
        return None

    while pending or running:
        while pending and len(running) < processes:
            index, name = pending.pop()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_job_child, args=(name, options, child_conn), daemon=True)
            process.start()
            child_conn.close()
            deadline = None if timeout is None else time.monotonic() + timeout
            running[process] = (index, name, parent_conn, deadline)

        for process in list(running):
            index, name, conn, deadline = running[process]
            outcome: Optional[JobOutcome] = None
            if conn.poll(0):
                try:
                    outcome = conn.recv()
                except (EOFError, OSError):
                    outcome = None
                if outcome is None:
                    outcome = JobOutcome(name, "error", 0.0, error="worker sent no outcome")
            elif not process.is_alive():
                # Exited without reporting: crashed hard (segfault, OOM kill).
                outcome = _drain(conn) or JobOutcome(
                    name,
                    "error",
                    0.0,
                    expected=_expected_of(registry, name),
                    error=f"worker died with exit code {process.exitcode}",
                )
            elif deadline is not None and time.monotonic() > deadline:
                process.terminate()
                outcome = JobOutcome(
                    name,
                    "timeout",
                    timeout or 0.0,
                    expected=_expected_of(registry, name),
                    error=f"exceeded per-job timeout of {timeout:.1f}s",
                )
            if outcome is not None:
                _absorb_child_obs(outcome.spans, outcome.metrics)
                outcome.spans = []
                outcome.metrics = {}
                process.join()
                conn.close()
                del running[process]
                outcomes_by_index[index] = outcome
        time.sleep(0.01)

    ordered = [outcomes_by_index[index] for index in range(len(names))]
    return SweepSummary(ordered, time.perf_counter() - start, processes)


def _expected_of(registry: ProblemRegistry, name: str) -> str:
    try:
        return registry.get(name).expected
    except KeyError:
        return EXPECTED_OK
