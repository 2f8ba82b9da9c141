"""The v1 wire format, pinned byte for byte.

``test_service_api.py`` checks that every contract type round-trips through
JSON, but a round-trip only shows that encoder and decoder agree with each
other: it would still pass if the v1 layout changed.  This test pins the
rendering itself.  For each type in :data:`api.CONTRACT_TYPES` it renders a
value with every field at its default and a value with every field set, and
compares ``json.dumps(value.to_json_dict(), indent=2)`` with the rendering
stored in ``tests/golden/service_api_v1.json``.  It also decodes each stored
rendering and checks that it gives the value back.
"""

import json
from pathlib import Path

import pytest

from repro.service import api

GOLDEN_PATH = Path(__file__).parent / "golden" / "service_api_v1.json"

_error = api.ErrorInfo("timeout", "too slow", {"timeout_seconds": 2.5})
_stage = api.StageReport("proof-search", 0.25, {"attempts": 45})
_verification = api.VerificationSummary(checked=24, satisfying=20, ok=True)
_result = api.SynthesisResult(
    problem="union_view",
    digest="ab12",
    cache_tier="disk",
    total_seconds=1.5,
    stages=(_stage,),
    expression="V1 u V2",
    expression_size=3,
    proof_size=17,
    raw_expression="U{ {x} | x in V1 } u V2",
    verification=_verification,
    source="witness",
)
_outcome = api.SweepOutcome(
    name="union_view",
    status="ok",
    seconds=0.75,
    expected="xfail",
    cache_tier="memory",
    expression="V1 u V2",
    expression_size=3,
    proof_size=17,
    verified=True,
    error="none",
    stage_seconds={"proof-search": 0.5, "verify": 0.25},
)
_span = api.SpanInfo(
    trace_id="t1",
    span_id="s2",
    name="pipeline.stage",
    start=1700000000.5,
    seconds=0.125,
    parent_id="s1",
    attributes={"stage": "validate", "rows": 3},
)
_response = api.SweepResponse(
    wall_seconds=2.0,
    processes=4,
    counts={"ok": 1},
    cache_hits=1,
    ok=False,
    jobs=(_outcome,),
    spans=(_span,),
)
_shard = api.ShardInfo(
    index=1,
    state="failed",
    problems=("union_view", "copy_chain_1"),
    node="http://worker:8000",
    retries=2,
    error=_error,
)
_problem = api.ProblemInfo(
    name="union_view",
    description="the union of two views",
    tags=("paper", "views"),
    expected="hard",
    has_instances=True,
)
_entry = api.CacheEntryInfo(
    digest="ab12",
    name="union_view",
    expression="V1 u V2",
    expression_size=3,
    proof_size=17,
    created=1700000000.0,
    payload_bytes=2048,
    synthesis_seconds=0.5,
)
_witness = api.WitnessInfo(
    digest="cd34",
    name="union_view",
    proof_size=17,
    created=1700000000.0,
    payload_bytes=512,
    sequent="V1, V2 |- O",
)

#: name → value.  ``<Type>/defaults`` leaves every field that has a default
#: at it; ``<Type>/full`` sets every field (where two fields exclude each
#: other, a third value sets the other one).
GOLDEN_VALUES = {
    "ErrorInfo/defaults": api.ErrorInfo("internal", "boom"),
    "ErrorInfo/full": _error,
    "SynthesizeRequest/defaults": api.SynthesizeRequest(problem="union_view"),
    "SynthesizeRequest/full": api.SynthesizeRequest(
        max_depth=12,
        verify_scale=24,
        cache_dir=".repro-cache",
        include_raw=True,
        timeout=30.0,
        spec_text="problem p { input I: {Ur} output O: {Ur} spec O = I }",
        ancestor="ef56",
    ),
    "SynthesizeRequest/problem": api.SynthesizeRequest(
        problem="union_view", max_depth=12, ancestor="ef56"
    ),
    "VerifyRequest/defaults": api.VerifyRequest(problem="union_view"),
    "VerifyRequest/full": api.VerifyRequest(problem="union_view", scale=8, max_depth=12),
    "SweepRequest/defaults": api.SweepRequest(),
    "SweepRequest/full": api.SweepRequest(
        problems=("union_view", "copy_chain_1"),
        processes=2,
        timeout=30.0,
        verify_scale=8,
        cache_dir=".repro-cache",
        max_depth=12,
    ),
    "SweepRequest/include_all": api.SweepRequest(include_all=True),
    "SweepSubmitRequest/defaults": api.SweepSubmitRequest(),
    "SweepSubmitRequest/full": api.SweepSubmitRequest(
        problems=("union_view",),
        processes=2,
        timeout=30.0,
        verify_scale=8,
        cache_dir=".repro-cache",
        max_depth=12,
        nodes=("http://a:8000", "http://b:8000"),
        shard_size=3,
        max_retries=5,
    ),
    "SweepSubmitRequest/include_all": api.SweepSubmitRequest(include_all=True, max_retries=0),
    "ProblemInfo/defaults": api.ProblemInfo(name="union_view", description="views"),
    "ProblemInfo/full": _problem,
    "ProblemPage/defaults": api.ProblemPage(),
    "ProblemPage/full": api.ProblemPage(problems=(_problem,), next_cursor="Y3Vyc29y"),
    "StageReport/defaults": api.StageReport("validate", 0.0),
    "StageReport/full": _stage,
    "VerificationSummary/defaults": api.VerificationSummary(0, 0, False),
    "VerificationSummary/full": _verification,
    "SynthesisResult/defaults": api.SynthesisResult(
        problem="union_view", digest="ab12", cache_tier="miss", total_seconds=0.5
    ),
    "SynthesisResult/full": _result,
    "JobStatus/defaults": api.JobStatus(
        id="job-1", state="queued", problem="union_view", submitted_at=1700000000.0
    ),
    "JobStatus/full": api.JobStatus(
        id="job-1",
        state="done",
        problem="union_view",
        submitted_at=1700000000.0,
        started_at=1700000001.0,
        finished_at=1700000002.5,
        result=_result,
        error=_error,
    ),
    "SweepOutcome/defaults": api.SweepOutcome(name="union_view", status="ok", seconds=0.5),
    "SweepOutcome/full": _outcome,
    "SpanInfo/defaults": api.SpanInfo(
        trace_id="t1", span_id="s1", name="http.request", start=1700000000.0, seconds=0.5
    ),
    "SpanInfo/full": _span,
    "TraceInfo/defaults": api.TraceInfo(trace_id="t1"),
    "TraceInfo/full": api.TraceInfo(trace_id="t1", job_id="job-1", spans=(_span,)),
    "SweepResponse/defaults": api.SweepResponse(wall_seconds=0.5, processes=1),
    "SweepResponse/full": _response,
    "ShardInfo/defaults": api.ShardInfo(index=0, state="pending"),
    "ShardInfo/full": _shard,
    "SweepJobStatus/defaults": api.SweepJobStatus(
        id="sweep-1", state="queued", submitted_at=1700000000.0
    ),
    "SweepJobStatus/full": api.SweepJobStatus(
        id="sweep-1",
        state="failed",
        submitted_at=1700000000.0,
        started_at=1700000001.0,
        finished_at=1700000002.5,
        shards=(_shard,),
        result=_response,
        error=_error,
    ),
    "CacheEntryInfo/defaults": api.CacheEntryInfo(
        digest="ab12",
        name="union_view",
        expression="V1 u V2",
        expression_size=3,
        proof_size=17,
        created=1700000000.0,
    ),
    "CacheEntryInfo/full": _entry,
    "DiskCacheStats/defaults": api.DiskCacheStats(cache_dir=".repro-cache"),
    "DiskCacheStats/full": api.DiskCacheStats(
        cache_dir=".repro-cache",
        entries=(_entry,),
        total_payload_bytes=2048,
        next_cursor="Y3Vyc29y",
        manifest={"generation": 3, "node_id": "n1"},
    ),
    "ProcessCacheStats/defaults": api.ProcessCacheStats(),
    "ProcessCacheStats/full": api.ProcessCacheStats(
        intern_table={"size": 10},
        shared_value_interner={"values": 4},
        search_tables={"successes": 2},
        result_cache={"memory_hits": 1},
        witness_store={"hits": 0},
    ),
    "WitnessInfo/defaults": api.WitnessInfo(digest="cd34"),
    "WitnessInfo/full": _witness,
    "WitnessPage/defaults": api.WitnessPage(),
    "WitnessPage/full": api.WitnessPage(witnesses=(_witness,)),
    "WitnessPayload/defaults": api.WitnessPayload(payload="AAEC"),
    "WitnessPayload/full": api.WitnessPayload(payload="AAEC", info=_witness),
}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_contract_type_is_pinned():
    pinned = {key.split("/")[0] for key in GOLDEN_VALUES}
    assert pinned == {cls.__name__ for cls in api.CONTRACT_TYPES}
    for cls in api.CONTRACT_TYPES:
        assert f"{cls.__name__}/defaults" in GOLDEN_VALUES
        assert f"{cls.__name__}/full" in GOLDEN_VALUES
    assert set(_golden()) == set(GOLDEN_VALUES)


@pytest.mark.parametrize("key", sorted(GOLDEN_VALUES))
def test_wire_rendering_matches_the_v1_golden(key):
    value = GOLDEN_VALUES[key]
    stored = _golden()[key]
    # Dumping the stored rendering reproduces its exact bytes (key order,
    # int vs float, null vs absent), so this compares the v1 bytes.
    assert json.dumps(value.to_json_dict(), indent=2) == json.dumps(stored, indent=2)
    assert type(value).from_json_dict(stored) == value
