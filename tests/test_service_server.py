"""SynthesisService core + async job engine + the HTTP front-end."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import api
from repro.service.server import BackgroundServer, SynthesisService


def http_get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def http_post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode())


def http_error(callable_, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args)
    body = json.loads(excinfo.value.read().decode())
    return excinfo.value.code, body


# ------------------------------------------------------------- sync service
def test_sync_service_methods_speak_the_typed_api():
    service = SynthesisService()
    infos = service.list_problems(tag="family:union")
    assert {info.name for info in infos} == {
        "union_of_3_views",
        "union_of_4_views",
        "union_of_5_views",
    }
    response = service.synthesize(api.SynthesizeRequest(problem="union_view"))
    assert response.problem == "union_view"
    assert response.expression.startswith("U{")
    assert response.cache_tier == "miss"
    # The service owns the cache across calls: the second run is warm.
    warm = service.synthesize(api.SynthesizeRequest(problem="union_view"))
    assert warm.cache_tier == "memory" and warm.cache_hit
    assert warm.expression == response.expression


def test_sync_service_error_taxonomy():
    service = SynthesisService()
    with pytest.raises(api.ApiError) as excinfo:
        service.synthesize(api.SynthesizeRequest(problem="no_such_problem"))
    assert excinfo.value.code == "unknown_problem"
    with pytest.raises(api.ApiError) as excinfo:
        service.verify(api.VerifyRequest(problem="selection_view"))
    assert excinfo.value.code == "invalid_request"
    assert "no instance generator" in excinfo.value.message
    with pytest.raises(api.ApiError) as excinfo:
        service.synthesize(api.SynthesizeRequest(problem="selection_view"))
    assert excinfo.value.code == "synthesis_failed"
    assert excinfo.value.detail["error_type"] == "InterpolationError"
    assert excinfo.value.detail["expected"] == "xfail"


def test_verify_runs_the_instance_family():
    service = SynthesisService()
    response = service.verify(api.VerifyRequest(problem="union_of_3_views", scale=8))
    assert response.verification == api.VerificationSummary(checked=8, satisfying=8, ok=True)


def test_sweep_through_the_service():
    service = SynthesisService()
    response = service.sweep(
        api.SweepRequest(problems=("identity_view", "unique_element"), processes=1)
    )
    assert response.ok
    assert [job.name for job in response.jobs] == ["identity_view", "unique_element"]


# ---------------------------------------------------------------- job engine
def test_submit_await_result():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(api.SynthesizeRequest(problem="identity_view"))
        assert status.state in (api.JOB_QUEUED, api.JOB_RUNNING)
        final = await service.wait(status.id)
        assert final.state == api.JOB_DONE
        assert final.result is not None and final.result.expression
        assert final.error is None
        assert service.jobs_enqueued == 1
        # Polling keeps working after completion.
        again = await service.job_status(status.id)
        assert again == final
        return service

    asyncio.run(scenario())


def test_warm_submissions_bypass_the_queue():
    async def scenario():
        service = SynthesisService()
        first = await service.wait(
            (await service.submit(api.SynthesizeRequest(problem="union_view"))).id
        )
        assert first.state == api.JOB_DONE
        assert service.jobs_enqueued == 1
        warm = await service.submit(api.SynthesizeRequest(problem="union_view"))
        # Born done: no queue, no worker, answered from the adopted cache.
        assert warm.state == api.JOB_DONE
        assert warm.result.cache_hit and warm.result.cache_tier == "memory"
        assert warm.result.expression == first.result.expression
        assert service.jobs_enqueued == 1
        assert service.warm_submissions == 1

    asyncio.run(scenario())


def test_warm_submissions_count_one_cache_hit_each(tmp_path):
    async def scenario():
        service = SynthesisService(cache_dir=str(tmp_path))
        request = api.SynthesizeRequest(problem="union_view")
        await service.wait((await service.submit(request)).id)
        for fresh, disk_reads in ((service, 0), (SynthesisService(cache_dir=str(tmp_path)), 1)):
            # On the fresh service the first submission reads the disk tier;
            # the four after it are memory hits.
            hits, disk_hits = fresh.cache.stats.hits, fresh.cache.stats.disk_hits
            for _ in range(5):
                warm = await fresh.submit(request)
                assert warm.state == api.JOB_DONE and warm.result.cache_hit
            assert fresh.cache.stats.hits == hits + 5
            assert fresh.cache.stats.disk_hits == disk_hits + disk_reads
            assert fresh.warm_submissions == 5

    asyncio.run(scenario())


def test_unknown_job_and_unknown_problem():
    async def scenario():
        service = SynthesisService()
        with pytest.raises(api.ApiError) as excinfo:
            await service.job_status("job-999999")
        assert excinfo.value.code == "unknown_job"
        with pytest.raises(api.ApiError) as excinfo:
            await service.submit(api.SynthesizeRequest(problem="nope"))
        assert excinfo.value.code == "unknown_problem"

    asyncio.run(scenario())


def test_queue_bound_rejects_excess_submissions():
    async def scenario():
        service = SynthesisService(max_workers=1, queue_limit=1)
        slow = api.SynthesizeRequest(problem="example_4_1")
        first = await service.submit(slow)
        with pytest.raises(api.ApiError) as excinfo:
            await service.submit(api.SynthesizeRequest(problem="copy_chain_2"))
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.http_status == 429
        cancelled = await service.cancel(first.id)
        assert cancelled.state in (api.JOB_CANCELLED, api.JOB_RUNNING)
        final = await service.wait(first.id, timeout=30)
        assert final.state == api.JOB_CANCELLED

    asyncio.run(scenario())


def test_per_job_timeout_is_a_structured_error():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(
            api.SynthesizeRequest(problem="example_4_1", timeout=0.6)
        )
        final = await service.wait(status.id, timeout=60)
        assert final.state == api.JOB_FAILED
        assert final.error is not None and final.error.code == "timeout"
        assert final.error.detail["timeout_seconds"] == 0.6

    asyncio.run(scenario())


def test_cancel_running_job_terminates_the_worker():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(api.SynthesizeRequest(problem="example_4_1"))
        # Let the job reach the worker process, then cancel it.
        for _ in range(100):
            await asyncio.sleep(0.02)
            if (await service.job_status(status.id)).state == api.JOB_RUNNING:
                break
        await service.cancel(status.id)
        final = await service.wait(status.id, timeout=30)
        assert final.state == api.JOB_CANCELLED
        assert final.error is not None and final.error.code == "cancelled"

    asyncio.run(scenario())


# ------------------------------------------------------------------ HTTP layer
@pytest.fixture(scope="module")
def server():
    with BackgroundServer(SynthesisService()) as handle:
        yield handle


def test_healthz(server):
    status, payload = http_get(server.url + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["version"] == api.API_VERSION
    assert payload["problems"] >= 18


def test_problems_endpoint_matches_the_registry(server):
    status, payload = http_get(server.url + "/v1/problems?tag=family:union")
    assert status == 200
    assert {entry["name"] for entry in payload} == {
        "union_of_3_views",
        "union_of_4_views",
        "union_of_5_views",
    }
    for entry in payload:
        api.ProblemInfo.from_json_dict(entry)  # valid wire schema


def test_synthesize_cold_then_warm_over_http(server):
    status, payload = http_post(
        server.url + "/v1/synthesize?wait=1", {"problem": "intersection_view"}
    )
    assert status == 200
    job = api.JobStatus.from_json_dict(payload)
    assert job.state == api.JOB_DONE
    assert job.result.expression
    assert not job.result.cache_hit

    _, health_before = http_get(server.url + "/healthz")
    status, payload = http_post(
        server.url + "/v1/synthesize?wait=1", {"problem": "intersection_view"}
    )
    assert status == 200
    warm = api.JobStatus.from_json_dict(payload)
    assert warm.state == api.JOB_DONE
    assert warm.result.cache_hit and warm.result.cache_tier == "memory"
    _, health_after = http_get(server.url + "/healthz")
    # The warm call never entered the queue.
    assert health_after["jobs_enqueued"] == health_before["jobs_enqueued"]
    assert health_after["warm_submissions"] == health_before["warm_submissions"] + 1


def test_async_submit_and_poll_over_http(server):
    status, payload = http_post(server.url + "/v1/synthesize", {"problem": "union_minus_view"})
    assert status in (200, 202)  # 202 while queued/running, 200 if already warm
    job_id = payload["id"]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, payload = http_get(server.url + f"/v1/jobs/{job_id}")
        assert status == 200
        if payload["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(0.05)
    assert payload["state"] == "done"
    assert payload["result"]["problem"] == "union_minus_view"


def test_http_error_taxonomy(server):
    # Unknown problem → 404 with the structured code.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize?wait=1", {"problem": "no_such"}
    )
    assert code == 404 and body["error"]["code"] == "unknown_problem"
    # Invalid spec (unknown field) → 400.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize", {"problem": "union_view", "depth": 1}
    )
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # Unknown job → 404.
    code, body = http_error(http_get, server.url + "/v1/jobs/job-424242")
    assert code == 404 and body["error"]["code"] == "unknown_job"
    # Unknown route → 404.
    code, body = http_error(http_get, server.url + "/v1/nope")
    assert code == 404 and body["error"]["code"] == "not_found"
    # Synthesis failure (the known-xfail entry) → 422 with provenance.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize?wait=1", {"problem": "selection_view"}
    )
    assert code == 422
    assert body["error"]["code"] == "synthesis_failed"
    assert body["error"]["detail"]["error_type"] == "InterpolationError"
    # Per-job timeout → 504 with the structured timeout error.
    code, body = http_error(
        http_post,
        server.url + "/v1/synthesize?wait=1",
        {"problem": "example_4_1", "timeout": 0.5},
    )
    assert code == 504 and body["error"]["code"] == "timeout"


def test_corrupt_disk_entry_does_not_serve_warm_inline(tmp_path):
    """A peeked-but-unreadable cache entry must fall back to the job queue,
    never to an inline cold synthesis on the event loop."""

    async def scenario():
        service = SynthesisService(cache_dir=str(tmp_path))
        first = await service.wait(
            (await service.submit(api.SynthesizeRequest(problem="union_view"))).id
        )
        assert first.state == api.JOB_DONE
        # Fresh service on the same disk tier, with the payload corrupted:
        # peek still sees the file, lookup must read it as a miss.
        fresh = SynthesisService(cache_dir=str(tmp_path))
        for payload in tmp_path.glob("*.pkl"):
            payload.write_bytes(b"not a pickle")
        status = await fresh.submit(api.SynthesizeRequest(problem="union_view"))
        assert status.state in (api.JOB_QUEUED, api.JOB_RUNNING)  # queued, not inline
        assert fresh.jobs_enqueued == 1 and fresh.warm_submissions == 0
        final = await fresh.wait(status.id)
        assert final.state == api.JOB_DONE

    asyncio.run(scenario())


def test_negative_content_length_is_a_400(server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.putrequest("POST", "/v1/synthesize", skip_accept_encoding=True)
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]["code"] == "invalid_request"
    finally:
        connection.close()


def test_malformed_body_is_a_400(server):
    request = urllib.request.Request(
        server.url + "/v1/synthesize",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_cache_stats_over_http(server, tmp_path):
    status, payload = http_get(server.url + "/v1/cache/stats")
    assert status == 200
    assert "intern_table" in payload["process"]
    status, payload = http_get(server.url + f"/v1/cache/stats?cache_dir={tmp_path}")
    assert status == 200
    assert payload["cache_dir"] == str(tmp_path) and payload["entries"] == []


def test_eight_concurrent_synthesize_requests_do_not_block_the_loop(server):
    """The ISSUE 5 acceptance bar: ≥8 concurrent /v1/synthesize requests,
    with the event loop still answering /healthz while they run."""
    problems = [
        "identity_view",
        "union_view",
        "intersection_view",
        "pair_of_views",
        "unique_element",
        "union_of_3_views",
        "union_of_4_views",
        "copy_chain_2",
    ]
    results = {}
    errors = []

    def submit(name):
        try:
            results[name] = http_post(
                server.url + "/v1/synthesize?wait=1", {"problem": name}
            )
        except Exception as exc:  # noqa: BLE001 - surfaced by the assertion below
            errors.append((name, exc))

    threads = [threading.Thread(target=submit, args=(name,)) for name in problems]
    for thread in threads:
        thread.start()
    # While the fleet runs, the loop must keep serving health checks quickly.
    probes = 0
    while any(thread.is_alive() for thread in threads):
        start = time.monotonic()
        status, payload = http_get(server.url + "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert time.monotonic() - start < 5.0
        probes += 1
        time.sleep(0.05)
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert probes > 0
    assert len(results) == len(problems)
    for name, (status, payload) in results.items():
        assert status == 200, (name, payload)
        assert payload["state"] == "done", (name, payload)
        assert payload["result"]["expression"], name


# ------------------------------------------------- fleet sweeps + pagination
def test_health_reports_node_identity(server):
    status, payload = http_get(server.url + "/healthz")
    assert status == 200
    node = payload["node"]
    assert node["id"]  # hostname-pid by default
    assert node["role"] == "worker"  # no standing worker_nodes configured
    assert node["worker_nodes"] == []
    assert node["manifest_generation"] == 0  # no disk tier on this fixture
    assert isinstance(node["queue_depth"], int)
    assert "sweeps" in payload and "sweeps_enqueued" in payload


def test_problems_pagination_tiles_the_registry(server):
    status, everything = http_get(server.url + "/v1/problems")
    assert status == 200 and isinstance(everything, list)  # legacy bare array
    collected = []
    url = server.url + "/v1/problems?limit=5"
    while True:
        status, payload = http_get(url)
        assert status == 200
        page = api.ProblemPage.from_json_dict(payload)
        assert len(page.problems) <= 5
        collected.extend(info.to_json_dict() for info in page.problems)
        if page.next_cursor is None:
            break
        url = server.url + f"/v1/problems?limit=5&cursor={page.next_cursor}"
    # Pages tile the legacy listing exactly: no gaps, no duplicates.
    assert collected == everything


def test_problems_pagination_respects_the_tag_filter(server):
    status, payload = http_get(server.url + "/v1/problems?tag=family:union&limit=2")
    assert status == 200
    page = api.ProblemPage.from_json_dict(payload)
    assert [info.name for info in page.problems] == ["union_of_3_views", "union_of_4_views"]
    status, payload = http_get(
        server.url + f"/v1/problems?tag=family:union&limit=2&cursor={page.next_cursor}"
    )
    rest = api.ProblemPage.from_json_dict(payload)
    assert [info.name for info in rest.problems] == ["union_of_5_views"]
    assert rest.next_cursor is None


def test_malformed_and_stale_cursors_are_invalid_requests(server):
    code, body = http_error(http_get, server.url + "/v1/problems?limit=5&cursor=%21%21")
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # A well-formed cursor naming a problem outside the listing is also bad.
    import base64

    stale = base64.urlsafe_b64encode(b"no_such_problem").decode().rstrip("=")
    code, body = http_error(http_get, server.url + f"/v1/problems?limit=5&cursor={stale}")
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # Limits must be positive integers.
    code, body = http_error(http_get, server.url + "/v1/problems?limit=0")
    assert code == 400
    code, body = http_error(http_get, server.url + "/v1/problems?limit=soon")
    assert code == 400


def test_cache_stats_pagination_over_http(server, tmp_path):
    from repro.proofs.search import ProofSearch
    from repro.service.cache import SynthesisCache
    from repro.specs import examples
    from repro.synthesis import synthesize

    cache = SynthesisCache(disk_dir=tmp_path)
    for problem in (examples.identity_view(), examples.union_view(),
                    examples.intersection_view()):
        cache.store(problem, synthesize(problem, search=ProofSearch(max_depth=12)))
    base = server.url + f"/v1/cache/stats?cache_dir={tmp_path}"
    status, whole = http_get(base)
    assert status == 200 and len(whole["entries"]) == 3
    assert "next_cursor" not in whole  # unpaginated shape is unchanged
    status, first = http_get(base + "&limit=2")
    page = api.DiskCacheStats.from_json_dict(first)
    assert len(page.entries) == 2 and page.next_cursor is not None
    # Totals describe the whole directory on every page.
    assert page.total_payload_bytes == whole["total_payload_bytes"]
    status, second = http_get(base + f"&limit=2&cursor={page.next_cursor}")
    rest = api.DiskCacheStats.from_json_dict(second)
    assert len(rest.entries) == 1 and rest.next_cursor is None
    digests = [entry.digest for entry in page.entries + rest.entries]
    assert digests == sorted(digests)  # stable digest order across pages
    assert {entry["digest"] for entry in whole["entries"]} == set(digests)
    # Pagination without a directory to paginate is an invalid request.
    code, body = http_error(http_get, server.url + "/v1/cache/stats?limit=2")
    assert code == 400 and body["error"]["code"] == "invalid_request"


def test_sweep_submit_then_poll_over_http(server):
    status, payload = http_post(
        server.url + "/v1/sweeps",
        {"problems": ["identity_view", "unique_element"], "processes": 1},
    )
    assert status in (200, 202)
    submitted = api.SweepJobStatus.from_json_dict(payload)
    assert submitted.id.startswith("sweep-")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, payload = http_get(server.url + f"/v1/sweeps/{submitted.id}")
        assert status == 200
        polled = api.SweepJobStatus.from_json_dict(payload)
        if polled.finished:
            break
        time.sleep(0.05)
    assert polled.state == api.JOB_DONE
    assert polled.result is not None and polled.result.ok
    assert [job.name for job in polled.result.jobs] == ["identity_view", "unique_element"]
    # Per-shard progress rode along and every shard landed.
    assert polled.shards and all(s.state == "done" for s in polled.shards)
    assert sorted(n for s in polled.shards for n in s.problems) == [
        "identity_view",
        "unique_element",
    ]


def test_sweep_wait_inline_answers_the_legacy_document(server):
    status, payload = http_post(
        server.url + "/v1/sweeps?wait=1",
        {"problems": ["identity_view"], "processes": 1},
    )
    assert status == 200
    # The bare SweepResponse shape `repro sweep --json` always printed.
    assert list(payload) == ["wall_seconds", "processes", "counts", "cache_hits", "ok", "jobs"]
    response = api.SweepResponse.from_json_dict(payload)
    assert response.ok and response.jobs[0].name == "identity_view"


def test_unknown_sweep_job_is_a_404(server):
    code, body = http_error(http_get, server.url + "/v1/sweeps/sweep-424242")
    assert code == 404 and body["error"]["code"] == "unknown_job"
    # Bad submissions are rejected before a job is minted.
    code, body = http_error(
        http_post, server.url + "/v1/sweeps", {"problems": ["x"], "shard_size": 0}
    )
    assert code == 400 and body["error"]["code"] == "invalid_request"


def test_sweep_against_unreachable_nodes_fails_with_node_unavailable():
    async def scenario():
        service = SynthesisService()
        status = await service.submit_sweep(
            api.SweepSubmitRequest(
                problems=("identity_view",),
                nodes=("http://127.0.0.1:9/",),  # discard port: nothing listens
                max_retries=0,
            )
        )
        final = await service.wait_sweep(status.id, timeout=60)
        assert final.state == api.JOB_FAILED
        assert final.error is not None and final.error.code == "node_unavailable"
        assert final.result is None
        assert final.shards and final.shards[0].state == "failed"

    asyncio.run(scenario())


# ----------------------------------------------------- spec_text submissions
def test_spec_text_submission_over_http(server):
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    problem = default_registry().get("union_view").problem()
    status, by_text = http_post(
        server.url + "/v1/synthesize?wait=1", {"spec_text": pretty_problem(problem)}
    )
    assert status == 200
    assert by_text["state"] == "done"
    assert by_text["problem"] == "union_view"
    _, by_name = http_post(server.url + "/v1/synthesize?wait=1", {"problem": "union_view"})
    assert by_text["result"]["expression"] == by_name["result"]["expression"]


def test_spec_text_parse_error_over_http(server):
    code, body = http_error(
        http_post, server.url + "/v1/synthesize", {"spec_text": "problem broken {"}
    )
    assert code == 400
    assert body["error"]["code"] == "parse_error"
    assert set(body["error"]["detail"]) == {"line", "column", "offset"}


def test_spec_text_job_snapshot_carries_the_parsed_name():
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    async def scenario():
        service = SynthesisService()
        text = pretty_problem(default_registry().get("identity_view").problem())
        status = await service.submit(api.SynthesizeRequest(spec_text=text))
        final = await service.wait(status.id)
        assert final.problem == "identity_view"
        assert final.state == api.JOB_DONE

    asyncio.run(scenario())


# --------------------------------------------------------- clock robustness
def test_job_pruning_survives_wall_clock_jumps(monkeypatch):
    from repro.service import server as server_mod

    monkeypatch.setattr(server_mod, "FINISHED_JOB_RETENTION", 2)
    service = SynthesisService()
    request = api.SynthesizeRequest(problem="union_view")
    # Wall clock steps *backwards* across these jobs (NTP correction mid-run);
    # the monotonic fields record the true completion order.
    for index in range(5):
        job = server_mod._Job(
            id=f"job-{index}",
            request=request,
            state=api.JOB_DONE,
            submitted_at=1000.0 - index,
            finished_at=1000.0 - index,
            submitted_mono=float(index),
            finished_mono=float(index),
        )
        service._jobs[job.id] = job
    service._prune_finished()
    # The two *most recently finished* jobs survive, not the two the jumped
    # wall clock claims are newest (those are job-0/job-1).
    assert set(service._jobs) == {"job-3", "job-4"}


def test_uptime_is_immune_to_wall_clock_steps(monkeypatch):
    import time as time_module

    from repro.obs.metrics import process_uptime_seconds

    before = process_uptime_seconds()
    monkeypatch.setattr(time_module, "time", lambda: 0.0)  # step to the epoch
    after = process_uptime_seconds()
    assert 0.0 <= before <= after
    service = SynthesisService()
    assert service.health()["uptime_seconds"] >= 0.0


# ------------------------------------------------------- cache-warm failures
def test_cache_warm_failures_are_logged_and_counted(caplog):
    import logging

    from repro.obs.metrics import get_registry
    from repro.service import server as server_mod
    from repro.service.registry import RegistryEntry

    def boom():
        raise RuntimeError("factory exploded")

    service = SynthesisService()
    entry = RegistryEntry(name="boom", factory=boom, description="test entry")
    job = server_mod._Job(
        id="job-boom",
        request=api.SynthesizeRequest(spec_text="problem boom { output O : Set(Ur); spec T }"),
        state=api.JOB_DONE,
        submitted_at=0.0,
        entry=entry,
    )
    before = get_registry().counter_total("repro_cache_warm_failures_total")
    with caplog.at_level(logging.DEBUG, logger="repro.service.server"):
        service._adopt_result(job, object())
    assert get_registry().counter_total("repro_cache_warm_failures_total") == before + 1
    assert any("cache warm failed" in record.message for record in caplog.records)
    assert "repro_cache_warm_failures_total" in get_registry().render_prometheus()


# ------------------------------------------------------------ witness exchange
def http_put(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="PUT",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode())


def test_witness_endpoints_need_a_disk_backed_cache(server):
    code, body = http_error(http_get, server.url + "/v1/witnesses")
    assert code == 400
    assert body["error"]["code"] == "invalid_request"
    assert "witness store unavailable" in body["error"]["message"]


def test_witness_endpoints_roundtrip(tmp_path):
    from repro.witness.handwritten import install_handwritten

    service = SynthesisService(cache_dir=str(tmp_path / "cache"))
    records = install_handwritten(service.cache.witnesses)
    digests = {record.digest for record in records.values()}
    with BackgroundServer(service) as handle:
        status, page = http_get(handle.url + "/v1/witnesses")
        assert status == 200
        assert {info["digest"] for info in page["witnesses"]} == digests
        status, limited = http_get(handle.url + "/v1/witnesses?limit=1")
        assert status == 200 and len(limited["witnesses"]) == 1
        digest = page["witnesses"][0]["digest"]
        status, payload = http_get(handle.url + f"/v1/witnesses/{digest}")
        assert status == 200
        assert payload["info"]["digest"] == digest and payload["payload"]
        code, body = http_error(http_get, handle.url + "/v1/witnesses/" + "0" * 64)
        assert code == 404 and body["error"]["code"] == "not_found"

    # PUT the exported payload into a second, empty node.
    receiver = SynthesisService(cache_dir=str(tmp_path / "other"))
    with BackgroundServer(receiver) as handle:
        status, info = http_put(handle.url + "/v1/witnesses", payload)
        assert status == 200 and info["digest"] == digest
        status, page = http_get(handle.url + "/v1/witnesses")
        assert [item["digest"] for item in page["witnesses"]] == [digest]
        code, body = http_error(
            http_put, handle.url + "/v1/witnesses", {"payload": "definitely-not-base64!"}
        )
        assert code == 400 and body["error"]["code"] == "invalid_request"
