"""Tests of the benchmark itself: additive self times, repeatable counts, the tail rule.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import subprocess
import sys

import common
import run
import tracing
import worker

#: Counts that later count-based claims rely on; they must repeat exactly.
DETERMINISTIC = ("search.attempts", "search.table_hits", "checker.calls", "verification.instances")


def _args(tmp_path, workload, seed, seconds=1.0):
    return argparse.Namespace(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=1,
        scratch=str(tmp_path),
        spans=str(tmp_path / "spans.jsonl"),
        probe=False,
    )


def test_self_times_plus_unattributed_add_up_to_traced_wall(tmp_path):
    result = worker.main_in_process(_args(tmp_path, "cold_catalog", seed=5))
    spans = tracing.read_spans(tmp_path / "spans.jsonl")
    assert spans and {span.name for span in spans} >= {"workers.execute", "pipeline.run", "search.prove"}
    covered = set(tracing.outside_stages(spans))
    attributed = sum(span.self_seconds for index, span in enumerate(spans) if index not in covered)
    runs = sum(span.seconds for span in spans if span.name == "pipeline.run")
    # Unattributed time as the pipeline itself reports it: run wall minus its stages.
    unattributed = runs - result["pipeline_stage_s"]
    wall = result["traced_wall_s"]
    assert wall > 0
    assert abs(attributed + unattributed - wall) <= 0.05 * wall
    # Every span is either a request root or lies inside its parent.
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.request == span.request


def _worker_run(tmp_path, name, seed):
    out = tmp_path / f"{name}.json"
    subprocess.run(
        [
            sys.executable,
            str(common.BENCH_DIR / "worker.py"),
            "--workload",
            "cold_catalog",
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            "1",
            "--scratch",
            str(tmp_path),
            "--spans",
            str(tmp_path / f"{name}.jsonl"),
            "--out",
            str(out),
        ],
        cwd=common.ROOT,
        env=common.program_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return json.loads(out.read_text())


def test_counts_repeat_exactly_on_the_same_seed(tmp_path):
    first, second = (_worker_run(tmp_path, name, seed=11) for name in ("first", "second"))
    assert first["nrc_size"] == second["nrc_size"] > 0
    for key in DETERMINISTIC:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["search.attempts"] > 0
    assert first["layers"]["checker.calls"] > 0
    assert first["layers"]["verification.instances"] > 0


def test_tail_leaves_ten_samples_beyond_it():
    few = common.latency_summary([i / 1000.0 for i in range(1, 31)])
    assert few["tail_blocks"] == 1 and few["tail_samples_beyond"] == 10
    assert few["latency_tail_ms"] == 20.0 and few["tail_percentile"] == "p66.7"
    # Three blocks of 200 (the rest dropped); block 2 is a slow stretch.
    samples = [i / 1000.0 for i in range(1, 201)] * 3 + [9.0] * 50
    samples[200:400] = [value * 10 for value in samples[200:400]]
    summary = common.latency_summary(samples)
    assert summary["tail_blocks"] == 3 and summary["tail_samples_beyond"] == 10
    assert summary["latency_tail_ms"] == 190.0 and summary["tail_percentile"] == "p95.0"


def test_timings_are_reported_at_the_reference_speed():
    with common.SpeedSampler() as sampler:
        pass
    assert len(sampler.samples) == 1 and sampler.samples[0] > 0
    # A machine running the probe twice as slowly as the reference.
    result = {
        "latencies": [0.010] * 30,
        "rates": [50.0, 40.0, 60.0],
        "speed_probes": [2 * common.REFERENCE_LOOP_S] * 3,
        "peak_rss_mb": 30.0,
        "nrc_size": 7,
    }
    metrics = run.end_to_end(result, [0.4, 0.2, 0.3], "cold_catalog")
    assert result["raw"] == {"setup_s": 0.3, "throughput_rps": 50.0, "latency_p50_ms": 10.0, "latency_tail_ms": 10.0}
    assert metrics["setup_s"] == 0.15 and metrics["throughput_rps"] == 100.0
    assert metrics["latency_p50_ms"] == metrics["latency_tail_ms"] == 5.0
    assert metrics["peak_rss_mb"] == 30.0 and metrics["nrc_size"] == 7.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in bench["workloads"]] == list(common.GATED_WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in bench["end_to_end"]} == run.END_TO_END_UNITS
    reported = [name for _, time_metric, calls in tracing.LAYERS for name in (time_metric, calls) if name]
    reported += list(tracing.DERIVED)
    assert [metric["name"] for metric in bench["per_layer"]] == reported
    assert all(metric["unit"] == run.layer_unit(metric["name"]) for metric in bench["per_layer"])
