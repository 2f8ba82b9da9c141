"""Benchmark-side tracing: wrap each layer's public function where its caller looks it up.

No span lives inside ``src/repro``.  :func:`install` replaces, for the
duration of a traced run, the attribute a caller reads at call time — for
example ``interpolate`` as bound in ``repro.synthesis.implicit_to_explicit``
— with a wrapper that records one span per call.  Spans carry a name, start,
end, parent and request id, are kept in memory, and are written out when the
run ends.  A layer's self time is its span's duration minus the part its
child spans cover; the self times of one request add up to its wall time.

Counts that the program already keeps (``ProofSearch.stats``, the
``PipelineReport`` stage details) are read from the objects the wrapped calls
receive or return; nothing is counted twice.  The recorder is separate from
the program's own tracer (``repro.obs``), so that changes to that tracer
cannot change what the benchmark measures.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    #: Duration of the child spans, accumulated as they finish.
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class SpanRecorder:
    """In-memory span buffer plus the counters the wrappers derive.

    The current span lives in a context variable, so nesting is per thread
    and per asyncio task.  ``request`` names the request the next root span
    belongs to; the in-process runners set it before each call, the server
    wrappers number the connections they handle.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar("perfbench_span", default=None)
        self._request: contextvars.ContextVar[str] = contextvars.ContextVar("perfbench_request", default="-")
        self._connections = itertools.count(1)

    def set_request(self, request_id: str) -> None:
        self._request.set(request_id)

    def new_connection(self) -> None:
        """Open a request id for a server connection (each runs in its own task context)."""
        if self._current.get() is None:
            self._request.set(f"conn-{next(self._connections)}")

    def begin(self, name: str) -> Tuple[int, object]:
        parent = self._current.get()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._request.get()))
        return index, self._current.set(index)

    def end(self, index: int, token: object) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._current.reset(token)
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.seconds

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, request (perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                handle.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> List[Span]:
    """Spans written by :meth:`SpanRecorder.write`, child seconds rebuilt."""
    spans: List[Span] = []
    with path.open() as handle:
        for line in handle:
            record = json.loads(line)
            spans.append(Span(record["name"], record["start"], record["end"], record["parent"], record["request"]))
    for span in spans:
        if span.parent is not None:
            spans[span.parent].child_seconds += span.seconds
    return spans


def self_time_table(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total self seconds and total inclusive seconds."""
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.self_seconds
        row["total_s"] += span.seconds
    return table


def outside_stages(spans: List[Span]) -> List[int]:
    """Indices of the spans that ``pipeline.unattributed_s`` already covers.

    That is each ``pipeline.run`` span and every span it calls outside a
    pipeline stage (``store_program`` and ``maintain`` run there).  The self
    times of all other spans plus ``pipeline.unattributed_s`` add up to the
    wall time of the requests.
    """
    covered = []
    for index, span in enumerate(spans):
        node: Optional[Span] = span
        while node is not None and not node.name.startswith("stage."):
            if node.name == "pipeline.run":
                covered.append(index)
                break
            node = spans[node.parent] if node.parent is not None else None
    return covered


# ------------------------------------------------------------------ wrapping
#: Called after a wrapped call returns: (recorder, before-state, args, kwargs, result).
AfterHook = Callable[[SpanRecorder, object, tuple, dict, object], None]
#: Called before a wrapped call: returns state handed to the after-hook.
BeforeHook = Callable[[tuple, dict], object]


class Installation:
    """The wrappers of one traced run; :meth:`remove` restores every attribute."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attribute: str,
        span: str,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
    ) -> None:
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        rewrap = None
        function = raw
        if isinstance(raw, classmethod):
            function, rewrap = raw.__func__, classmethod
        if inspect.iscoroutinefunction(function):
            wrapper = _async_wrapper(self.recorder, function, span)
        else:
            wrapper = _sync_wrapper(self.recorder, function, span, before, after)
        setattr(owner, attribute, rewrap(wrapper) if rewrap is not None else wrapper)
        self._restore.append((owner, attribute, raw))

    def replace(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()


def _sync_wrapper(recorder: SpanRecorder, function, span: str, before, after):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        index, token = recorder.begin(span)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index, token)
        if after is not None:
            after(recorder, state, args, kwargs, result)
        return result

    return wrapper


def _async_wrapper(recorder: SpanRecorder, function, span: str):
    """The server's connection handler: each connection is a request of its own."""

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return await function(*args, **kwargs)
        recorder.new_connection()
        index, token = recorder.begin(span)
        try:
            return await function(*args, **kwargs)
        finally:
            recorder.end(index, token)

    return wrapper


def _search_stats(search) -> Tuple[int, int, int, int]:
    stats = search.stats
    return stats.attempts, stats.exists_moves, stats.table_hits, stats.failure_hits


def _before_search(args: tuple, kwargs: dict):
    search = args[1] if len(args) > 1 else kwargs.get("search")
    return (search, _search_stats(search)) if search is not None else None


def _after_search(recorder: SpanRecorder, state, args, kwargs, result) -> None:
    if state is None:
        return
    search, before = state
    for key, old, new in zip(
        ("search.attempts", "search.exists_moves", "search.table_hits", "search.failure_hits"),
        before,
        _search_stats(search),
    ):
        recorder.count(key, new - old)


def _after_lookup(recorder: SpanRecorder, state, args, kwargs, result) -> None:
    _, tier = result
    recorder.count("cache.lookups")
    if tier in ("memory", "disk"):
        recorder.count("cache.hits")


def _after_verification(recorder: SpanRecorder, state, args, kwargs, result) -> None:
    assignments = args[2] if len(args) > 2 else kwargs["assignments"]
    recorder.count("verification.instances", len(assignments))


def _after_run(recorder: SpanRecorder, state, args, kwargs, result) -> None:
    """Stage accounting the pipeline itself exports on its report."""
    stages = result.stages
    recorder.count("pipeline.stage_seconds", sum(stage.seconds for stage in stages))
    for stage in stages:
        if stage.name == "simplification":
            recorder.count("simplify.size_before", stage.detail.get("size_before", 0))
            recorder.count("simplify.size_after", stage.detail.get("size_after", 0))
        elif stage.name == "verification":
            recorder.count("verification.rows_evaluated", stage.detail.get("rows_evaluated", 0))
            recorder.count("verification.rows_reused", stage.detail.get("rows_reused", 0))


def install(recorder: SpanRecorder, server: bool = False) -> Installation:
    """Wrap every layer boundary the benchmark reports on.

    ``server`` also wraps the HTTP front door (only the server process has
    one).  The caller enables ``recorder`` when timing should start.
    """
    # Modules by full name: some packages re-export a function under its
    # module's name (``repro.synthesis.collect_answers``).
    api = importlib.import_module("repro.service.api")
    cache = importlib.import_module("repro.service.cache")
    pipeline = importlib.import_module("repro.service.pipeline")
    workers = importlib.import_module("repro.service.workers")
    lang = importlib.import_module("repro.specs.lang")
    collect_answers = importlib.import_module("repro.synthesis.collect_answers")
    implicit_to_explicit = importlib.import_module("repro.synthesis.implicit_to_explicit")
    verification = importlib.import_module("repro.synthesis.verification")
    store = importlib.import_module("repro.witness.store")

    inst = Installation(recorder)
    inst.wrap(pipeline.SynthesisPipeline, "run", "pipeline.run", after=_after_run)
    for module in (pipeline, implicit_to_explicit):
        inst.wrap(module, "find_determinacy_proof", "search.prove", before=_before_search, after=_after_search)
        inst.wrap(module, "synthesize", "extraction.assembly")
    inst.wrap(implicit_to_explicit, "interpolate", "interpolation.interpolate")
    inst.wrap(collect_answers, "collect_answers", "collection.collect")
    inst.wrap(implicit_to_explicit, "check_proof", "checker.check")
    inst.wrap(store, "check_proof", "checker.check")
    inst.wrap(pipeline, "simplify_with_stats", "simplify")
    inst.wrap(implicit_to_explicit, "simplify", "simplify")
    inst.wrap(lang, "parse_problem", "lang.parse")
    inst.wrap(cache.SynthesisCache, "lookup", "cache.lookup", after=_after_lookup)
    inst.wrap(cache.SynthesisCache, "peek", "cache.peek")
    inst.wrap(cache.SynthesisCache, "store", "cache.store")
    inst.wrap(cache.SynthesisCache, "store_program", "cache.program_store")
    inst.wrap(cache.SynthesisCache, "load_program", "cache.program_load")
    inst.wrap(cache.SynthesisCache, "maintain", "cache.maintain")
    inst.wrap(store.WitnessStore, "put", "witness.put")
    inst.wrap(pipeline, "intern", "interning.intern")
    inst.wrap(pipeline, "compile_formula", "compile.formula")
    inst.wrap(pipeline, "check_explicit_definition", "verification.check", after=_after_verification)
    inst.wrap(verification, "satisfying_assignments", "compile.eval")
    inst.wrap(verification, "eval_nrc_batch_columns", "eval.batch")
    inst.wrap(pipeline.PipelineReport, "to_response", "api.encode")
    inst.wrap(workers, "execute_synthesize_request", "workers.execute")

    stage_base = pipeline._timed_stage

    class _StageSpan(stage_base):
        """A pipeline stage as a span, so a run's self time is what no stage covers."""

        def __enter__(self):
            if recorder.enabled:
                self._bench_span = recorder.begin("stage." + self._name)
            return super().__enter__()

        def __exit__(self, exc_type, exc, tb):
            try:
                return super().__exit__(exc_type, exc, tb)
            finally:
                opened = self.__dict__.pop("_bench_span", None)
                if opened is not None:
                    recorder.end(*opened)

    inst.replace(pipeline, "_timed_stage", _StageSpan)

    if server:
        server_module = importlib.import_module("repro.service.server")
        inst.wrap(server_module, "execute_synthesize_request", "workers.execute")
        inst.wrap(api.SynthesizeRequest, "from_json", "api.decode")
        inst.wrap(api.JobStatus, "to_json_dict", "api.encode")
        inst.wrap(server_module, "_handle_connection", "server.handler")
    return inst


# ------------------------------------------------------------ layer metrics
#: Every layer the benchmark reports: span name, self-time metric (seconds
#: per request) and call-count metric (calls per round of the workload).
LAYERS = (
    ("search.prove", "search.prove_s", "search.calls"),
    ("interpolation.interpolate", "interpolation.interpolate_s", "interpolation.calls"),
    ("collection.collect", "collection.collect_s", "collection.calls"),
    ("checker.check", "checker.check_s", "checker.calls"),
    ("extraction.assembly", "extraction.assembly_s", "extraction.calls"),
    ("simplify", "simplify.s", "simplify.calls"),
    ("lang.parse", "lang.parse_s", "lang.calls"),
    ("cache.lookup", "cache.lookup_s", "cache.lookup_calls"),
    ("cache.store", "cache.store_s", "cache.store_calls"),
    ("cache.program_store", "cache.program_store_s", "cache.program_store_calls"),
    ("cache.program_load", "cache.program_load_s", "cache.program_load_calls"),
    ("cache.maintain", "cache.maintain_s", "cache.maintain_calls"),
    ("witness.put", "witness.put_s", "witness.calls"),
    ("server.handler", "server.handler_s", "server.calls"),
    ("api.decode", "api.decode_s", "api.decode_calls"),
    ("api.encode", "api.encode_s", "api.encode_calls"),
    ("interning.intern", "interning.intern_s", "interning.calls"),
    ("compile.formula", "compile.formula_s", "compile.calls"),
    ("compile.eval", "compile.eval_s", "compile.eval_calls"),
    ("verification.check", "verification.check_s", "verification.calls"),
    ("eval.batch", "eval.batch_s", "eval.calls"),
    ("workers.execute", "workers.execute_s", "workers.calls"),
    ("pipeline.run", None, "pipeline.calls"),
)

#: Metrics derived from counts rather than from one span.
DERIVED = (
    "pipeline.unattributed_s",
    "search.attempts",
    "search.exists_moves",
    "search.table_hits",
    "search.failure_hits",
    "search.hit_ratio",
    "simplify.shrink_ratio",
    "cache.hit_ratio",
    "verification.instances",
    "verification.rows_reused_ratio",
    "server.client_gap_ms",
    "obs.tracing_overhead",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Span],
    counters: Dict[str, float],
    requests: int,
    round_spans: List[Span],
    round_counters: Dict[str, float],
    round_scale: float = 1.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    Times are self seconds per request over the whole phase.  Counts and the
    ratios built from them cover one round — one pass over the workload's
    distinct inputs — so they repeat exactly on the same seed.  A server
    cannot tell rounds apart; there ``round_scale`` rescales the window's
    counts to one round.
    """
    table = self_time_table(spans)
    calls: Dict[str, int] = defaultdict(int)
    for span in round_spans:
        calls[span.name] += 1
    metrics: Dict[str, float] = {}
    for name, time_metric, calls_metric in LAYERS:
        if time_metric is not None:
            metrics[time_metric] = _ratio(table.get(name, {}).get("self_s", 0.0), requests)
        metrics[calls_metric] = calls[name] * round_scale
    run_seconds = table.get("pipeline.run", {}).get("total_s", 0.0)
    metrics["pipeline.unattributed_s"] = _ratio(run_seconds - counters.get("pipeline.stage_seconds", 0.0), requests)
    count = {key: value * round_scale for key, value in round_counters.items()}
    for key in ("attempts", "exists_moves", "table_hits", "failure_hits"):
        metrics[f"search.{key}"] = count.get(f"search.{key}", 0.0)
    metrics["search.hit_ratio"] = _ratio(
        count.get("search.table_hits", 0.0) + count.get("search.failure_hits", 0.0),
        count.get("search.attempts", 0.0) + count.get("search.table_hits", 0.0),
    )
    metrics["simplify.shrink_ratio"] = _ratio(
        count.get("simplify.size_after", 0.0), count.get("simplify.size_before", 0.0)
    )
    metrics["cache.hit_ratio"] = _ratio(count.get("cache.hits", 0.0), count.get("cache.lookups", 0.0))
    metrics["verification.instances"] = count.get("verification.instances", 0.0)
    reused = count.get("verification.rows_reused", 0.0)
    metrics["verification.rows_reused_ratio"] = _ratio(reused, reused + count.get("verification.rows_evaluated", 0.0))
    return metrics
