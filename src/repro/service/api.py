"""The versioned, typed contract of the synthesis service (wire format v1).

Every caller of the service — the ``python -m repro`` CLI, the asyncio HTTP
front-end (:mod:`repro.service.server`), sweep worker processes — speaks the
frozen dataclasses of this module instead of ad-hoc dicts.  The module is a
**leaf**: it imports nothing from the rest of the service layer, so requests
and responses can cross process boundaries (pickle) and the network (JSON)
without dragging pipeline machinery along.

Contracts
=========

* Requests — :class:`SynthesizeRequest`, :class:`VerifyRequest`,
  :class:`SweepRequest`, :class:`SweepSubmitRequest` (the async fleet
  submission).  Validation happens at construction (and again in
  ``from_json_dict``, which additionally rejects unknown and mistyped
  fields), so a malformed request is an :class:`ApiError` with code
  ``invalid_request`` *before* any synthesis machinery runs.
* Responses — :class:`SynthesisResult` (one pipeline run: digest, cache tier,
  per-stage timings, the synthesized definition, an optional verification
  summary), :class:`ProblemInfo` (one registry entry), :class:`SweepResponse`
  / :class:`SweepOutcome` (a parallel sweep), :class:`JobStatus` (one async
  job's lifecycle), :class:`SweepJobStatus` / :class:`ShardInfo` (an async
  sweep's per-shard progress), :class:`ProblemPage` (paginated listings),
  and the cache-stats pair :class:`DiskCacheStats` /
  :class:`ProcessCacheStats`.
* Errors — :class:`ApiError`, a structured taxonomy (:data:`ERROR_CODES`)
  with an HTTP status per code and a JSON rendering, so the CLI and the HTTP
  server map the same failure to the same message.

Serialization
=============

Every contract is declared with :func:`_contract`, which derives
``to_json_dict``/``from_json_dict``/``to_json``/``from_json`` from the
dataclass fields and their type hints: keys are emitted in field order, and
decoding checks each value against its hint.  The one wire rule that differs
between fields — whether a field is left out while it equals its default —
is declared with :func:`_elided`.  Serialization is deterministic:
``X.from_json(x.to_json()) == x`` for every contract type (the round-trip is
property-tested), and equal values render byte-identically.
"""

from __future__ import annotations

import json
from collections.abc import Mapping as AbcMapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from operator import methodcaller
from typing import Dict, Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

#: The wire-format version; every HTTP route is prefixed with it.
API_VERSION = "v1"

#: Default verification family size when a request verifies (``scale`` rows).
DEFAULT_VERIFY_SCALE = 24

#: Job lifecycle states (see :class:`JobStatus`).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: Shard lifecycle states (see :class:`ShardInfo`).  A shard whose node dies
#: goes back to ``pending`` (with ``retries`` incremented) until retries are
#: exhausted, so ``failed`` always means "every attempt failed", never "a
#: node happened to die".
SHARD_PENDING = "pending"
SHARD_RUNNING = "running"
SHARD_DONE = "done"
SHARD_FAILED = "failed"
SHARD_STATES = (SHARD_PENDING, SHARD_RUNNING, SHARD_DONE, SHARD_FAILED)

#: Default retry budget per shard (attempts = 1 + DEFAULT_SHARD_RETRIES).
DEFAULT_SHARD_RETRIES = 2

# ----------------------------------------------------------------- the errors
#: Error code → HTTP status.  The taxonomy is closed: every failure the
#: service can surface maps onto exactly one of these codes.
ERROR_CODES: Dict[str, int] = {
    "invalid_request": 400,  # malformed request (bad field, bad type, bad JSON)
    "parse_error": 400,  # spec_text did not parse (position info in detail)
    "not_found": 404,  # no such route / resource
    "unknown_problem": 404,  # the registry has no entry with this name
    "unknown_job": 404,  # no job with this id
    "no_trace": 404,  # the job exists but recorded no trace (tracing disabled)
    "synthesis_failed": 422,  # the synthesis stack raised (search, interpolation…)
    "verification_failed": 422,  # the definition mismatched its instance family
    "timeout": 504,  # the job exceeded its per-job deadline
    "cancelled": 409,  # the job was cancelled before it finished
    "queue_full": 429,  # the bounded job queue rejected the submission
    "node_unavailable": 503,  # a fleet node stayed unreachable past the retry budget
    "internal": 500,  # anything unexpected (worker crash, server bug)
}


# ------------------------------------------------------------------ the codec
_ELIDED = "elided"

#: Contract class → (encoders, decoders, wire keys), built by :func:`_contract`.
_CODECS: Dict[type, tuple] = {}


def _elided(default=MISSING, *, default_factory=MISSING):
    """A field left off the wire while it equals its default."""
    return field(default=default, default_factory=default_factory, metadata={_ELIDED: True})


def _expect(name: str, value, typ):
    if not isinstance(value, typ):
        raise invalid_request(f"field {name!r} must be {typ.__name__}, got {type(value).__name__}")
    return value


def _decode_float(name: str, value):
    if type(value) is int:
        return float(value)
    return _expect(name, value, float)


def _decode_int(name: str, value):
    if isinstance(value, bool):
        raise invalid_request(f"field {name!r} must be int, got bool")
    return _expect(name, value, int)


def _decoder(hint):
    """``(field name, JSON value) -> field value`` for one type hint."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        inner = _decoder(next(arg for arg in args if arg is not type(None)))
        return lambda name, value: None if value is None else inner(name, value)
    if origin is tuple:  # Tuple[X, ...]
        item = _decoder(args[0])
        return lambda name, value: tuple(item(name, v) for v in _expect(name, value, list))
    if origin is AbcMapping:
        return lambda name, value: _expect(name, value, dict)
    if is_dataclass(hint):
        return lambda name, value: hint.from_json_dict(value)
    if hint is float:
        return _decode_float
    if hint is int:
        return _decode_int
    return lambda name, value: _expect(name, value, hint)


def _encoder(hint):
    """``field value -> JSON value`` for one type hint (``None``: as is)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        inner = _encoder(next(arg for arg in args if arg is not type(None)))
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        item = _encoder(args[0])
        return list if item is None else (lambda value: [item(v) for v in value])
    if origin is AbcMapping:
        return dict
    if is_dataclass(hint):
        return methodcaller("to_json_dict")
    return None


def _check_keys(kind: str, payload, allowed) -> None:
    if not isinstance(payload, Mapping):
        raise invalid_request(f"{kind} payload must be a JSON object, got {type(payload).__name__}")
    unknown = payload.keys() - allowed
    if unknown:
        raise invalid_request(
            f"{kind} has unknown field(s): {', '.join(sorted(unknown))}",
            unknown_fields=sorted(unknown),
        )


def _encode(value) -> Dict[str, object]:
    payload: Dict[str, object] = {}
    for name, encode, elide, default in _CODECS[type(value)][0]:
        item = getattr(value, name)
        if elide and item == default:
            continue
        payload[name] = item if encode is None else encode(item)
    return payload


def _decode(cls, payload, kind: Optional[str] = None):
    decoders, keys = _CODECS[cls][1:]
    _check_keys(kind or cls.__name__, payload, keys)
    kwargs = {}
    for name, decode, required in decoders:
        if name in payload:
            kwargs[name] = decode(name, payload[name])
        elif required:
            raise invalid_request(f"missing required field {name!r}")
    return cls(**kwargs)


def _contract(cls):
    """Declare ``cls`` a frozen dataclass with a JSON codec derived from its fields.

    * ``Tuple``/``Mapping`` fields are normalised to ``tuple``/``dict`` at
      construction, before the class's own ``__post_init__`` validation.
    * Every field with ``compare=True`` goes on the wire, in field order;
      an :func:`_elided` field is left out while it equals its default.
      ``compare=False`` fields are transport-local and never serialized.
    * ``init=False`` fields are derived: encoded, but ignored when decoding.
    * Decoding rejects unknown keys, missing required keys and values that do
      not match the field's hint (``int`` is accepted for ``float``, ``bool``
      is refused for ``int``), each as an ``invalid_request`` error.

    The methods are installed on the class itself (not inherited), and only
    where the class body does not define its own.
    """
    validate = cls.__dict__.get("__post_init__")
    normalise = []

    def __post_init__(self) -> None:
        for name, convert in normalise:
            object.__setattr__(self, name, convert(getattr(self, name)))
        if validate is not None:
            validate(self)

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    hints = get_type_hints(cls)
    encoders, decoders, keys = [], [], set()
    for spec in fields(cls):
        hint = hints[spec.name]
        convert = {tuple: tuple, AbcMapping: dict}.get(get_origin(hint))
        if convert is not None:
            normalise.append((spec.name, convert))
        if not spec.compare:
            continue
        default = spec.default
        if spec.default_factory is not MISSING:
            default = spec.default_factory()
        keys.add(spec.name)
        encoders.append((spec.name, _encoder(hint), spec.metadata.get(_ELIDED, False), default))
        if spec.init:
            decoders.append((spec.name, _decoder(hint), default is MISSING))
    _CODECS[cls] = (tuple(encoders), tuple(decoders), frozenset(keys))

    def to_json_dict(self) -> Dict[str, object]:
        return _encode(self)

    def from_json_dict(cls, payload: Mapping[str, object]):
        return _decode(cls, payload)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def from_json(cls, text: str):
        return cls.from_json_dict(_parse_json_object(text))

    for name, method in (
        ("to_json_dict", to_json_dict),
        ("from_json_dict", classmethod(from_json_dict)),
        ("to_json", to_json),
        ("from_json", classmethod(from_json)),
    ):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _parse_json_object(text) -> Mapping[str, object]:
    try:
        payload = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise invalid_request(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise invalid_request(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@_contract
class ErrorInfo:
    """The data of a structured error (embeddable in :class:`JobStatus`)."""

    code: str
    message: str
    detail: Mapping[str, object] = _elided(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown API error code {self.code!r}")

    @property
    def http_status(self) -> int:
        return ERROR_CODES[self.code]


class ApiError(Exception):
    """A structured service failure: taxonomy code + message + detail."""

    def __init__(self, code: str, message: str, detail: Optional[Mapping[str, object]] = None):
        super().__init__(message)
        self.info = ErrorInfo(code, message, detail or {})

    @property
    def code(self) -> str:
        return self.info.code

    @property
    def message(self) -> str:
        return self.info.message

    @property
    def detail(self) -> Mapping[str, object]:
        return self.info.detail

    @property
    def http_status(self) -> int:
        return self.info.http_status

    def to_json_dict(self) -> Dict[str, object]:
        return {"error": self.info.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_info(cls, info: ErrorInfo) -> "ApiError":
        return cls(info.code, info.message, info.detail)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ApiError":
        body = payload.get("error", payload)
        if not isinstance(body, Mapping):
            raise ValueError(f"malformed error payload: {payload!r}")
        return cls.from_info(ErrorInfo.from_json_dict(body))


def invalid_request(message: str, **detail: object) -> ApiError:
    return ApiError("invalid_request", message, detail)


def unknown_problem(message: str) -> ApiError:
    return ApiError("unknown_problem", message)


def parse_error(message: str, **detail: object) -> ApiError:
    """A ``spec_text`` that failed to parse; ``detail`` carries the position
    (``line``/``column``/``offset``) reported by the spec-language parser."""
    return ApiError("parse_error", message, detail)


def unknown_job(job_id: str) -> ApiError:
    return ApiError("unknown_job", f"unknown job {job_id!r}", {"job_id": job_id})


def queue_full(limit: int) -> ApiError:
    return ApiError(
        "queue_full",
        f"job queue is full ({limit} jobs queued or running); retry later",
        {"queue_limit": limit},
    )


def job_timeout(seconds: float) -> ApiError:
    return ApiError(
        "timeout",
        f"job exceeded its timeout of {seconds:.1f}s",
        {"timeout_seconds": seconds},
    )


def job_cancelled(job_id: str) -> ApiError:
    return ApiError("cancelled", f"job {job_id!r} was cancelled", {"job_id": job_id})


def node_unavailable(message: str, **detail: object) -> ApiError:
    return ApiError("node_unavailable", message, detail)


def synthesis_failure(exc: BaseException, expected: str = "ok") -> ApiError:
    """Map a synthesis-stack exception onto the taxonomy.

    ``expected`` is the registry expectation of the entry that failed; a
    non-``"ok"`` value appends the known-limitation note the CLI has always
    printed, so the message is transport-independent.
    """
    note = ""
    if expected != "ok":
        note = f" (a known limitation: this entry is marked {expected!r} in the registry)"
    return ApiError(
        "synthesis_failed",
        f"{type(exc).__name__}: {exc}{note}",
        {"error_type": type(exc).__name__, "expected": expected},
    )


# ------------------------------------------------------------------- requests
@_contract
class SynthesizeRequest:
    """Run one registry problem through the staged pipeline.

    ``verify_scale`` > 0 additionally verifies the definition on that many
    generated satisfying instances (skipped when the entry has no instance
    generator).  ``cache_dir`` overrides the service's persistent cache
    directory for this request.  ``timeout`` bounds asynchronous execution
    (seconds); inline callers ignore it.

    ``spec_text`` submits a textual problem (spec-language syntax, see
    :mod:`repro.specs.lang`) instead of a registry name: exactly one of
    ``problem``/``spec_text`` must be given.  A ``spec_text`` that fails to
    parse surfaces as a ``parse_error`` with position detail.

    ``ancestor`` is the witness digest of a previously synthesized spec this
    one was edited from: the pipeline seeds its proof search from the stored
    ancestor witness (incremental resynthesis) when the digest resolves, and
    silently falls back to a cold search when it does not.
    """

    problem: str = _elided("")
    max_depth: Optional[int] = _elided(None)
    verify_scale: int = _elided(0)
    cache_dir: Optional[str] = _elided(None)
    include_raw: bool = _elided(False)
    timeout: Optional[float] = _elided(None)
    spec_text: Optional[str] = _elided(None)
    ancestor: Optional[str] = _elided(None)

    def __post_init__(self) -> None:
        if self.spec_text is None:
            if not isinstance(self.problem, str) or not self.problem:
                raise invalid_request("problem must be a non-empty registry name")
        else:
            if not isinstance(self.spec_text, str) or not self.spec_text.strip():
                raise invalid_request("spec_text must be a non-empty problem text")
            if self.problem:
                raise invalid_request("pass either problem or spec_text, not both")
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")
        if self.verify_scale < 0:
            raise invalid_request("verify_scale must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise invalid_request("timeout must be positive")
        if self.ancestor is not None and (
            not isinstance(self.ancestor, str) or not self.ancestor
        ):
            raise invalid_request("ancestor must be a non-empty witness digest")


@_contract
class VerifyRequest:
    """Synthesize + check the definition on a generated instance family."""

    problem: str
    scale: int = DEFAULT_VERIFY_SCALE
    max_depth: Optional[int] = _elided(None)

    def __post_init__(self) -> None:
        if not isinstance(self.problem, str) or not self.problem:
            raise invalid_request("problem must be a non-empty registry name")
        if self.scale < 1:
            raise invalid_request(
                "scale must be at least 1: verifying zero instances verifies nothing"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")

    def to_synthesize(self) -> SynthesizeRequest:
        return SynthesizeRequest(
            problem=self.problem, max_depth=self.max_depth, verify_scale=self.scale
        )


@_contract
class SweepRequest:
    """Run many registry problems through the parallel worker pool.

    An empty ``problems`` tuple sweeps the default population (every entry
    expected to synthesize) unless ``include_all`` asks for the full registry.
    """

    problems: Tuple[str, ...] = _elided(())
    include_all: bool = _elided(False)
    processes: Optional[int] = _elided(None)
    timeout: Optional[float] = _elided(None)
    verify_scale: int = _elided(0)
    cache_dir: Optional[str] = _elided(None)
    max_depth: Optional[int] = _elided(None)

    def __post_init__(self) -> None:
        if any(not isinstance(name, str) or not name for name in self.problems):
            raise invalid_request("problems must be non-empty registry names")
        if self.problems and self.include_all:
            raise invalid_request("pass either explicit problems or include_all, not both")
        if self.processes is not None and self.processes < 1:
            raise invalid_request("processes must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise invalid_request("timeout must be positive")
        if self.verify_scale < 0:
            raise invalid_request("verify_scale must be non-negative")
        if self.max_depth is not None and self.max_depth < 1:
            raise invalid_request("max_depth must be at least 1")


@_contract
class SweepSubmitRequest:
    """Submit a sweep as one async fleet job (``POST /v1/sweeps``).

    The problem-selection fields mirror :class:`SweepRequest` (an empty
    ``problems`` tuple sweeps the default population); the fleet fields
    describe how the coordinator shards the work:

    * ``nodes`` — worker base URLs (``http://host:port``).  Empty means run
      every shard on the coordinator's own local pool.
    * ``shard_size`` — problems per shard; defaults to striping one shard per
      node (or one shard total when local-only).
    * ``max_retries`` — how many times a shard is re-queued after its node
      fails before the shard is marked ``failed``.
    """

    problems: Tuple[str, ...] = _elided(())
    include_all: bool = _elided(False)
    processes: Optional[int] = _elided(None)
    timeout: Optional[float] = _elided(None)
    verify_scale: int = _elided(0)
    cache_dir: Optional[str] = _elided(None)
    max_depth: Optional[int] = _elided(None)
    nodes: Tuple[str, ...] = _elided(())
    shard_size: Optional[int] = _elided(None)
    max_retries: int = _elided(DEFAULT_SHARD_RETRIES)

    def __post_init__(self) -> None:
        # Shared selection/execution fields obey SweepRequest's rules.
        self.to_sweep_request()
        if any(not isinstance(node, str) or not node for node in self.nodes):
            raise invalid_request("nodes must be non-empty worker base URLs")
        if self.shard_size is not None and self.shard_size < 1:
            raise invalid_request("shard_size must be at least 1")
        if self.max_retries < 0:
            raise invalid_request("max_retries must be non-negative")

    def to_sweep_request(self) -> SweepRequest:
        """The equivalent single-node request (what each shard executes)."""
        return SweepRequest(
            problems=self.problems,
            include_all=self.include_all,
            processes=self.processes,
            timeout=self.timeout,
            verify_scale=self.verify_scale,
            cache_dir=self.cache_dir,
            max_depth=self.max_depth,
        )


# ------------------------------------------------------------------ responses
@_contract
class ProblemInfo:
    """One registry entry's discoverable metadata."""

    name: str
    description: str
    tags: Tuple[str, ...] = ()
    expected: str = "ok"
    has_instances: bool = False


@_contract
class StageReport:
    """One named pipeline stage: wall-clock seconds + provenance detail."""

    name: str
    seconds: float
    detail: Mapping[str, object] = _elided(default_factory=dict)


@_contract
class VerificationSummary:
    """Tally of the batched verification stage."""

    checked: int
    satisfying: int
    ok: bool


@_contract
class SynthesisResult:
    """The wire rendering of one pipeline run (the service's main response).

    ``cache_hit`` is derived from ``cache_tier``: it goes on the wire but is
    never an argument, and a decoded ``cache_hit`` is ignored.

    ``expression``, ``expression_size`` and ``proof_size`` are set together
    or not at all (a run that synthesized nothing).

    ``display`` carries transport-local conveniences (the pretty-printed
    definition for terminal rendering); it is excluded from serialization and
    from equality, so round-tripping through JSON preserves ``==``.

    ``source`` is the synthesis provenance on a cache miss — ``"witness"``
    (a stored proof replayed verbatim), ``"incremental"`` (proof search
    seeded from an ancestor witness) or ``"cold"`` — and ``None`` on cache
    hits, where no synthesis ran at all.
    """

    problem: str
    digest: str
    cache_tier: str
    cache_hit: bool = field(init=False)
    total_seconds: float
    stages: Tuple[StageReport, ...] = ()
    expression: Optional[str] = _elided(None)
    expression_size: Optional[int] = _elided(None)
    proof_size: Optional[int] = _elided(None)
    raw_expression: Optional[str] = _elided(None)
    verification: Optional[VerificationSummary] = _elided(None)
    source: Optional[str] = _elided(None)
    display: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cache_hit", self.cache_tier in ("memory", "disk"))
        unset = {self.expression is None, self.expression_size is None, self.proof_size is None}
        if len(unset) > 1:
            raise invalid_request("expression, expression_size and proof_size go together")


@_contract
class JobStatus:
    """One asynchronous job's lifecycle snapshot.

    ``state`` walks ``queued → running → done | failed | cancelled``;
    warm-cache submissions are born ``done`` (they never enter the queue).
    ``result`` is set on ``done``; ``error`` on ``failed``/``cancelled``.
    """

    id: str
    state: str
    problem: str
    submitted_at: float
    started_at: Optional[float] = _elided(None)
    finished_at: Optional[float] = _elided(None)
    result: Optional[SynthesisResult] = _elided(None)
    error: Optional[ErrorInfo] = _elided(None)

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise invalid_request(f"unknown job state {self.state!r}")

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@_contract
class SweepOutcome:
    """Flat wire record of one sweep job (mirrors ``workers.JobOutcome``)."""

    name: str
    status: str
    seconds: float
    expected: str = "ok"
    cache_tier: str = "off"
    expression: Optional[str] = None
    expression_size: Optional[int] = None
    proof_size: Optional[int] = None
    verified: Optional[bool] = None
    error: Optional[str] = None
    stage_seconds: Mapping[str, float] = field(default_factory=dict)

    def to_stable_json_dict(self) -> Dict[str, object]:
        """The deterministic projection: everything except timings/placement.

        Two runs of the same problem must render byte-identically here no
        matter which node ran them or how warm its caches were — the fleet's
        "merged results are byte-identical to a single-node run" acceptance
        check compares exactly this projection.
        """
        return {
            "name": self.name,
            "status": self.status,
            "expected": self.expected,
            "expression": self.expression,
            "expression_size": self.expression_size,
            "proof_size": self.proof_size,
            "verified": self.verified,
            "error": self.error,
        }


@_contract
class SpanInfo:
    """One finished trace span (see :mod:`repro.obs.trace`).

    ``start`` is wall-clock epoch seconds; ``seconds`` is the
    ``perf_counter``-measured duration.  ``parent_id`` is omitted from the
    JSON rendering for root spans, and ``attributes`` when empty.
    """

    trace_id: str
    span_id: str
    name: str
    start: float
    seconds: float
    parent_id: Optional[str] = _elided(None)
    attributes: Mapping[str, object] = _elided(default_factory=dict)


@_contract
class TraceInfo:
    """The span tree recorded for one trace (``GET /v1/jobs/<id>/trace``)."""

    trace_id: str
    job_id: str = ""
    spans: Tuple[SpanInfo, ...] = ()


@_contract
class SweepResponse:
    """All sweep outcomes plus aggregate counters."""

    wall_seconds: float
    processes: int
    counts: Mapping[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    ok: bool = True
    jobs: Tuple[SweepOutcome, ...] = ()
    #: Trace spans covering this sweep (coordinator + remote nodes), attached
    #: only by tracing-enabled servers answering ``?wait=1``; omitted from the
    #: JSON rendering when empty so pre-telemetry payloads are unchanged.
    spans: Tuple[SpanInfo, ...] = _elided(())

    def to_stable_json_dict(self) -> Dict[str, object]:
        """Deterministic projection of the whole sweep (see ``SweepOutcome``)."""
        return {
            "counts": dict(self.counts),
            "ok": self.ok,
            "jobs": [job.to_stable_json_dict() for job in self.jobs],
        }

    def to_stable_json(self) -> str:
        return json.dumps(self.to_stable_json_dict(), indent=2)


@_contract
class ShardInfo:
    """One sweep shard's placement and lifecycle snapshot.

    ``node`` is the display name of the node the shard last ran on (empty
    while pending and never dispatched).  ``retries`` counts re-queues after
    node failures; ``error`` is set when the shard exhausted its retries.
    """

    index: int
    state: str
    problems: Tuple[str, ...] = ()
    node: str = ""
    retries: int = 0
    error: Optional[ErrorInfo] = _elided(None)

    def __post_init__(self) -> None:
        if self.state not in SHARD_STATES:
            raise invalid_request(f"unknown shard state {self.state!r}")
        if self.index < 0:
            raise invalid_request("shard index must be non-negative")
        if self.retries < 0:
            raise invalid_request("shard retries must be non-negative")


@_contract
class SweepJobStatus:
    """One asynchronous *sweep* job's lifecycle + per-shard progress.

    The sweep-level analogue of :class:`JobStatus`: ``state`` walks the same
    ``queued → running → done | failed | cancelled`` lattice, ``shards``
    reports placement/retry progress while running, ``result`` carries the
    merged :class:`SweepResponse` on ``done`` and ``error`` the terminal
    failure otherwise.
    """

    id: str
    state: str
    submitted_at: float
    started_at: Optional[float] = _elided(None)
    finished_at: Optional[float] = _elided(None)
    shards: Tuple[ShardInfo, ...] = ()
    result: Optional[SweepResponse] = _elided(None)
    error: Optional[ErrorInfo] = _elided(None)

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise invalid_request(f"unknown job state {self.state!r}")

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@_contract
class ProblemPage:
    """One page of registry entries (``GET /v1/problems`` with ``limit``).

    ``next_cursor`` is an opaque token for the next page; ``None`` means the
    listing is exhausted.  Ordering is stable (registration order), so pages
    taken across requests tile the registry without gaps or duplicates.
    """

    problems: Tuple[ProblemInfo, ...] = ()
    next_cursor: Optional[str] = _elided(None)


@_contract
class CacheEntryInfo:
    """One persistent cache entry's metadata (also its on-disk JSON sidecar).

    ``synthesis_seconds`` is the wall-time of the cold run that produced the
    entry (proof search + extraction + simplification) — the recompute cost
    the eviction policy protects.  Sidecars written before the field existed
    read as ``0.0``: maximally cheap, first to go.
    """

    digest: str
    name: str
    expression: str
    expression_size: int
    proof_size: int
    created: float
    payload_bytes: int = 0
    synthesis_seconds: float = 0.0


@_contract
class DiskCacheStats:
    """Persistent-tier inventory of a cache directory.

    ``next_cursor`` is set when the entry listing was paginated (``limit``
    query param): an opaque token for the next page, omitted from the JSON
    rendering when the listing is complete so unpaginated responses render
    exactly as they did before pagination existed.
    """

    cache_dir: str
    entries: Tuple[CacheEntryInfo, ...] = ()
    total_payload_bytes: int = 0
    next_cursor: Optional[str] = _elided(None)
    #: Shared-cache manifest provenance (generation, node_id, updated_at,
    #: plus the serving process's bump/skew-drop counters when available);
    #: omitted from the JSON rendering when the directory has no manifest.
    manifest: Mapping[str, object] = _elided(default_factory=dict)


@_contract
class ProcessCacheStats:
    """This process's in-memory cache telemetry (no ``cache_dir`` given).

    On the wire the fields sit inside a ``"process"`` envelope.
    """

    intern_table: Mapping[str, object] = field(default_factory=dict)
    shared_value_interner: Mapping[str, object] = field(default_factory=dict)
    #: Transposition-table sizes of the most recent proof search
    #: (:func:`repro.proofs.search.last_tables_stats`).
    search_tables: Mapping[str, object] = field(default_factory=dict)
    #: The serving process's two-tier result-cache counters
    #: (:class:`repro.service.cache.CacheStats`).
    result_cache: Mapping[str, object] = field(default_factory=dict)
    #: The witness tier's counters (:class:`repro.witness.store.
    #: WitnessStoreStats`); empty when the cache has no disk directory.
    witness_store: Mapping[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        return {"process": _encode(self)}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ProcessCacheStats":
        _check_keys("ProcessCacheStats", payload, {"process"})
        return _decode(cls, payload.get("process", {}), "ProcessCacheStats.process")


@_contract
class WitnessInfo:
    """One stored proof witness's metadata (``GET /v1/witnesses``)."""

    digest: str
    name: str = ""
    proof_size: int = 0
    created: float = 0.0
    payload_bytes: int = 0
    sequent: str = _elided("")

    def __post_init__(self) -> None:
        if not isinstance(self.digest, str) or not self.digest:
            raise invalid_request("witness digest must be a non-empty string")


@_contract
class WitnessPage:
    """The witness-store inventory (``GET /v1/witnesses``), newest first."""

    witnesses: Tuple[WitnessInfo, ...] = ()


@_contract
class WitnessPayload:
    """One witness with its portable payload, base64-encoded.

    The body of ``GET /v1/witnesses/<digest>`` and of ``PUT /v1/witnesses``
    (the import direction, where ``info`` may be elided — the receiving store
    re-derives every metadatum by re-checking the proof).
    """

    payload: str
    info: Optional[WitnessInfo] = _elided(None)

    def __post_init__(self) -> None:
        if not isinstance(self.payload, str) or not self.payload:
            raise invalid_request("witness payload must be a non-empty base64 string")


#: Every serializable contract type, for the round-trip property tests.
CONTRACT_TYPES = (
    ErrorInfo,
    SynthesizeRequest,
    VerifyRequest,
    SweepRequest,
    SweepSubmitRequest,
    ProblemInfo,
    ProblemPage,
    StageReport,
    VerificationSummary,
    SynthesisResult,
    JobStatus,
    SweepOutcome,
    SpanInfo,
    TraceInfo,
    SweepResponse,
    ShardInfo,
    SweepJobStatus,
    CacheEntryInfo,
    DiskCacheStats,
    ProcessCacheStats,
    WitnessInfo,
    WitnessPage,
    WitnessPayload,
)
