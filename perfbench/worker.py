"""The process that does a workload's work (or, for ``warm_http``, its client).

Started by ``run.py``; prints ``READY`` once set-up is done, then runs the
timed phase and writes its measurements as JSON to ``--out``.  With
``--probe`` it exits right after ``READY``: the orchestrator starts several
probes to take the median set-up time.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload cold_chain --seed 1 \\
        --seconds 10 --trace 0 --out perfbench/out/result.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

import common
import tracing
import workloads

#: Over HTTP, throughput is counted in windows of this many seconds.
WINDOW_S = 1.0


def _phase_summary(outcomes: List[workloads.Outcome]) -> Dict[str, object]:
    failed = [outcome for outcome in outcomes if outcome.error is not None]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "errors": sorted({f"{outcome.name}: {outcome.error}" for outcome in failed})[:20],
    }


def _diagnostics(outcomes: List[workloads.Outcome]) -> List[Dict[str, object]]:
    """One row per spec: name, median latency, source, search attempts, NRC size."""
    by_name: Dict[str, List[workloads.Outcome]] = {}
    for outcome in outcomes:
        by_name.setdefault(outcome.name, []).append(outcome)
    rows = []
    for name, group in sorted(by_name.items()):
        seconds = sorted(outcome.seconds for outcome in group)
        rows.append(
            {
                "name": name,
                "requests": len(group),
                "latency_ms": seconds[len(seconds) // 2] * 1000.0,
                "source": group[0].source,
                "attempts": group[0].attempts,
                "nrc_size": group[0].nrc_size,
            }
        )
    return rows


def _nrc_size(outcomes: List[workloads.Outcome]) -> int:
    """Sum of ``expr_size`` over the distinct definitions (by spec digest) produced."""
    sizes = {outcome.digest: outcome.nrc_size for outcome in outcomes if outcome.error is None}
    return sum(sizes.values())


# ------------------------------------------------------------- in-process
def run_in_process(runner: workloads.Runner, seconds: float, recorder: Optional[tracing.SpanRecorder]):
    """Closed loop over whole rounds for about ``seconds``; round 0 always runs.

    A round always completes, so every run is made of whole rounds and their
    mix of requests.  A new round starts only while half of the last round's
    time still fits before ``seconds``, so a run of long rounds ends close to
    ``seconds`` on average.  With a recorder, odd rounds are traced and even
    rounds are not, so both see the same warm-up and their difference is the
    tracing overhead; round 1, the first traced round, always runs too.
    Returns the outcomes and (traced) the counters of round 1.
    """
    deadline_s = workloads.DEADLINE_S[runner.workload]
    min_rounds = 2 if recorder is not None else 1
    outcomes: List[workloads.Outcome] = []
    round_counters: Dict[str, float] = {}
    stop = time.perf_counter() + seconds
    round_number = 0
    last_round_s = 0.0
    while round_number < min_rounds or time.perf_counter() + last_round_s / 2 < stop:
        round_start = time.perf_counter()
        traced = recorder is not None and round_number % 2 == 1
        runner.recorder = recorder if traced else None
        for position, item in enumerate(runner.round_items(round_number)):
            if traced:
                recorder.set_request(f"{round_number}:{position}:{item.name}")
            try:
                outcome = runner.execute(item)
            except Exception as exc:  # noqa: BLE001 - a typed error fails this request, not the run
                outcome = workloads.Outcome(item.name, 0.0, error=f"{type(exc).__name__}: {exc}")
            if outcome.error is None and outcome.seconds > deadline_s:
                outcome.error = f"past its {deadline_s:.0f} s deadline"
            outcome.round = round_number
            outcomes.append(outcome)
        if traced and round_number == 1:
            round_counters = dict(recorder.counters)
        last_round_s = time.perf_counter() - round_start
        round_number += 1
    runner.recorder = None
    return outcomes, round_counters


def _round_rates(outcomes: List[workloads.Outcome]) -> List[float]:
    """Each round's successful requests per second of the program's busy time."""
    by_round: Dict[int, List[workloads.Outcome]] = {}
    for outcome in outcomes:
        by_round.setdefault(outcome.round, []).append(outcome)
    rates = []
    for group in by_round.values():
        busy = sum(outcome.seconds for outcome in group)
        if busy > 0:
            rates.append(sum(1 for outcome in group if outcome.error is None) / busy)
    return rates


def _mean_latency(outcomes: List[workloads.Outcome]) -> float:
    return sum(outcome.seconds for outcome in outcomes) / len(outcomes) if outcomes else 0.0


def main_in_process(args) -> Dict[str, object]:
    scratch = Path(args.scratch)
    runner = workloads.RUNNERS[args.workload](args.seed, scratch)
    print("READY", flush=True)
    if args.probe:
        return {}
    runner.prepare()
    result: Dict[str, object] = {"machine": common.machine_context()}
    if not args.trace:
        with common.SpeedSampler() as speed:
            outcomes, _ = run_in_process(runner, args.seconds, None)
        result["phase"] = _phase_summary(outcomes)
        untraced = outcomes
    else:
        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder)
        try:
            with common.SpeedSampler() as speed:
                outcomes, round_counters = run_in_process(runner, args.seconds, recorder)
        finally:
            installation.remove()
        untraced = [outcome for outcome in outcomes if outcome.round % 2 == 0]
        traced = [outcome for outcome in outcomes if outcome.round % 2 == 1]
        # Round 0 warms the process; compare later untraced rounds when there are any.
        baseline = [outcome for outcome in untraced if outcome.round > 0] or untraced
        spans = recorder.spans
        first_round = [span for span in spans if span.request.startswith("1:")]
        layers = tracing.layer_metrics(spans, recorder.counters, len(traced), first_round, round_counters)
        layers["server.client_gap_ms"] = 0.0
        layers["obs.tracing_overhead"] = _mean_latency(traced) / _mean_latency(baseline) - 1.0
        result["phase"] = _phase_summary(outcomes)
        result["layers"] = layers
        result["self_times"] = tracing.self_time_table(spans)
        result["traced_wall_s"] = sum(outcome.seconds for outcome in traced)
        result["pipeline_stage_s"] = recorder.counters.get("pipeline.stage_seconds", 0.0)
        recorder.write(Path(args.spans))
        result["spans_file"] = args.spans
    result["latencies"] = [outcome.seconds for outcome in untraced if outcome.error is None]
    result["rates"] = _round_rates(untraced)
    result["speed_probes"] = speed.samples
    result["nrc_size"] = _nrc_size([outcome for outcome in outcomes if outcome.round == 0])
    result["diagnostics"] = _diagnostics(outcomes)
    result["peak_rss_mb"] = common.peak_rss_mb()
    return result


# ------------------------------------------------------------ HTTP client
def _metric_totals(url: str) -> Dict[str, float]:
    """Server-side sum and count of ``repro_http_request_seconds`` for the synthesize route."""
    with urllib.request.urlopen(f"{url}/v1/metrics?format=json", timeout=10) as response:
        payload = json.loads(response.read())
    for metric in payload["metrics"]:
        if metric["name"] == "repro_http_request_seconds":
            for sample in metric["samples"]:
                if sample["labels"].get("endpoint") == "/v1/synthesize":
                    return {"sum": sample["sum"], "count": sample["count"]}
    return {"sum": 0.0, "count": 0}


class HttpClients:
    """Closed-loop clients: each thread sends its next request when the last one answered."""

    def __init__(self, url: str, names: List[str], expected, threads: int = 2) -> None:
        from repro.service import api

        self.url = url
        self.names = names
        self.expected = expected
        self.threads = threads
        self.bodies = {name: api.SynthesizeRequest(problem=name).to_json().encode() for name in names}
        self._lock = threading.Lock()
        self._next = 0

    def _take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index

    def _request(self, name: str) -> workloads.Outcome:
        request = urllib.request.Request(
            f"{self.url}/v1/synthesize?wait=1",
            data=self.bodies[name],
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=workloads.DEADLINE_S["warm_http"]) as response:
                body = response.read()
                status = response.status
        except urllib.error.HTTPError as exc:
            return workloads.Outcome(name, time.perf_counter() - start, error=f"HTTP {exc.code}")
        except (urllib.error.URLError, OSError) as exc:
            return workloads.Outcome(name, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if status != 200:
            return workloads.Outcome(name, seconds, error=f"HTTP {status}")
        try:
            job = json.loads(body)
        except ValueError:
            return workloads.Outcome(name, seconds, error="answer is not JSON")
        result = job.get("result") or {}
        digest, expression = self.expected[name]
        if job.get("state") != "done" or result.get("digest") != digest or result.get("expression") != expression:
            return workloads.Outcome(name, seconds, error="answer differs from the in-process result")
        return workloads.Outcome(
            name,
            seconds,
            nrc_size=result.get("expression_size") or 0,
            digest=digest,
            source=result.get("cache_tier", ""),
        )

    def run(self, seconds: float):
        """One closed-loop phase; the first full round always completes."""
        outcomes: List[workloads.Outcome] = []
        self._next = 0
        start = time.perf_counter()
        stop = start + seconds

        def loop() -> None:
            while True:
                index = self._take()
                if index >= len(self.names) and time.perf_counter() >= stop:
                    return
                outcome = self._request(self.names[index % len(self.names)])
                outcome.window = int((time.perf_counter() - start) // WINDOW_S)
                with self._lock:
                    outcomes.append(outcome)

        workers = [threading.Thread(target=loop, daemon=True) for _ in range(self.threads)]
        for worker in workers:
            worker.start()
        limit = seconds + 2 * workloads.DEADLINE_S["warm_http"] + 30
        for worker in workers:
            worker.join(max(0.0, start + limit - time.perf_counter()))
        if any(worker.is_alive() for worker in workers):
            raise RuntimeError("HTTP clients did not finish")
        return outcomes, start, time.perf_counter()

    def phase(self, seconds: float):
        """A phase plus the server's own mean time per synthesize request during it."""
        before = _metric_totals(self.url)
        outcomes, start, end = self.run(seconds)
        after = _metric_totals(self.url)
        served = after["count"] - before["count"]
        server_mean = (after["sum"] - before["sum"]) / served if served else 0.0
        return outcomes, (start, end), server_mean


def _window_rates(outcomes: List[workloads.Outcome], wall_s: float) -> List[float]:
    """Successful answers per second in each whole second of an HTTP phase."""
    windows = int(wall_s // WINDOW_S)
    if windows == 0:
        return [sum(1 for outcome in outcomes if outcome.error is None) / wall_s]
    counts = [0] * windows
    for outcome in outcomes:
        if outcome.error is None and outcome.window < windows:
            counts[outcome.window] += 1
    return [count / WINDOW_S for count in counts]


def main_http_client(args) -> Dict[str, object]:
    names, expected = workloads.http_expected(args.seed)
    clients = HttpClients(args.url, names, expected)
    print("READY", flush=True)
    result: Dict[str, object] = {"machine": common.machine_context(), "round_size": len(names)}
    with common.SpeedSampler() as speed:
        untraced, (start, end), _ = clients.phase(args.seconds / 2 if args.trace else args.seconds)
    result["rates"] = _window_rates(untraced, end - start)
    result["speed_probes"] = speed.samples
    outcomes = list(untraced)
    if args.trace:
        # Same warm server, recording switched on for the second half.
        os.kill(args.server_pid, signal.SIGUSR1)
        marker = Path(args.spans + ".on")
        give_up = time.perf_counter() + 10
        while not marker.exists():
            if time.perf_counter() > give_up:
                raise RuntimeError("traced server did not start recording")
            time.sleep(0.01)
        traced, window, server_mean = clients.phase(args.seconds / 2)
        outcomes += traced
        ok = [outcome.seconds for outcome in traced if outcome.error is None]
        result["window"] = window
        result["client_gap_ms"] = (sum(ok) / len(ok) - server_mean) * 1000.0 if ok else 0.0
        result["tracing_overhead"] = _mean_latency(traced) / _mean_latency(untraced) - 1.0
    result["phase"] = _phase_summary(outcomes)
    result["latencies"] = [outcome.seconds for outcome in untraced if outcome.error is None]
    result["nrc_size"] = _nrc_size(untraced)
    result["diagnostics"] = _diagnostics(outcomes)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--scratch", default=str(common.OUT_DIR))
    parser.add_argument("--spans", default=str(common.OUT_DIR / "spans.jsonl"))
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--url", default=None)
    parser.add_argument("--server-pid", type=int, default=0)
    args = parser.parse_args()
    if args.workload == "warm_http":
        result = main_http_client(args)
    else:
        result = main_in_process(args)
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
