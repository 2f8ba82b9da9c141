"""End-to-end synthesis benchmark: one command, four workloads, per-layer traced runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_chain --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``cold_chain``   — ``copy_chain(1..3)`` cold through ``SynthesisPipeline.run``;
* ``cold_catalog`` — the registry catalog plus seeded fuzz specs through
  ``execute_synthesize_request``, every request a cache miss;
* ``warm_http``    — ``repro serve`` over HTTP, every answer a memory hit;
* ``verify_bulk``  — warm-cache ``SynthesisPipeline.run`` with 1024-row families.

``--trace 0`` prints the end-to-end metrics, timings at a fixed reference
speed of the machine (see ``common.SpeedSampler``); ``--trace 1`` runs half the time
untraced and half traced and prints the per-layer metrics.  Every answer is
checked; any failed request makes the command exit with status 1.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  This file imports nothing from the program: the
program runs in child processes, whose set-up is what ``setup_s`` measures.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import tracing
import workloads

#: Probe set-ups before and after the measured one; ``setup_s`` is the
#: median of all of them.  Sampling on both sides of the timed phase spreads
#: them over more of the machine's speed swings than back-to-back samples do.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
#: The whole command stays within this many seconds.
RUN_LIMIT_S = 170.0
#: Worker processes of the HTTP server (``repro serve --max-workers``).
SERVER_WORKERS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "nrc_size": "nodes",
}

WORKER = common.BENCH_DIR / "worker.py"
LAUNCHER = common.BENCH_DIR / "serve_launcher.py"


class BenchError(RuntimeError):
    """The run could not be measured (a child failed, hung or never got ready)."""


class Run:
    """Deadline bookkeeping and child-process hygiene for one command."""

    def __init__(self, args, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.children: List[subprocess.Popen] = []

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("the run exceeded its time limit")
        return left

    def spawn(self, argv: List[str]) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=common.ROOT,
            env=common.program_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        self.children.append(process)
        return process

    def wait_line(self, process: subprocess.Popen, prefix: str) -> str:
        """Read the child's standard output until a line starts with ``prefix``."""
        while True:
            ready, _, _ = select.select([process.stdout], [], [], min(self.remaining(), 1.0))
            if ready:
                line = process.stdout.readline()
                if not line:
                    raise BenchError(f"child exited with status {process.wait()} before {prefix!r}")
                if line.startswith(prefix):
                    return line.strip()
                sys.stderr.write(line)

    def finish(self, process: subprocess.Popen) -> None:
        """Wait for a child to exit on its own; a non-zero status is an error."""
        try:
            status = process.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a child process hung") from exc
        if status != 0:
            raise BenchError(f"child process exited with status {status}")

    def stop(self, process: subprocess.Popen) -> None:
        """Interrupt a server, then kill it if it does not exit."""
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def close(self) -> None:
        for process in self.children:
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()


# ------------------------------------------------------------- in-process
def worker_argv(run: Run, extra: List[str]) -> List[str]:
    args = run.args
    return [
        str(WORKER),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--scratch",
        str(run.scratch),
        *extra,
    ]


def timed_setup(run: Run, argv: List[str]) -> Tuple[subprocess.Popen, float]:
    start = time.perf_counter()
    process = run.spawn(argv)
    run.wait_line(process, "READY")
    return process, time.perf_counter() - start


def probe_setup(run: Run) -> float:
    probe, seconds = timed_setup(run, worker_argv(run, ["--probe"]))
    run.finish(probe)
    return seconds


def measure_in_process(run: Run, spans_file: Path) -> Tuple[Dict[str, object], List[float]]:
    setups = [probe_setup(run) for _ in range(SETUP_PROBES_BEFORE)]
    out = run.scratch / "result.json"
    process, seconds = timed_setup(run, worker_argv(run, ["--out", str(out), "--spans", str(spans_file)]))
    setups.append(seconds)
    run.finish(process)
    setups += [probe_setup(run) for _ in range(SETUP_PROBES_AFTER)]
    return json.loads(out.read_text()), setups


# ------------------------------------------------------------------- HTTP
def _http_json(url: str, body: Optional[bytes] = None, timeout: float = 60.0):
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def start_server(run: Run, spans_file: Path) -> Tuple[subprocess.Popen, str, float]:
    """Start ``repro serve``, wait until it listens, then warm it with the catalog.

    Returns the process, its base URL and the set-up seconds (spawn + import
    + registry build + listening + the warm-up pass).
    """
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--max-workers", str(SERVER_WORKERS)]
    if run.args.trace:
        argv = [str(LAUNCHER), "--spans", str(spans_file), "--", *serve]
    else:
        argv = ["-m", "repro", *serve]
    start = time.perf_counter()
    process = run.spawn(argv)
    line = run.wait_line(process, "repro service listening on ")
    url = line.split()[4]
    _, problems = _http_json(f"{url}/v1/problems", timeout=run.remaining())
    names = [
        info["name"] for info in problems if info["expected"] == "ok" and not info["name"].startswith("copy_chain_")
    ]
    failures: List[str] = []

    def warm(part: List[str]) -> None:
        for name in part:
            body = json.dumps({"problem": name}).encode()
            try:
                status, job = _http_json(f"{url}/v1/synthesize?wait=1", body, timeout=60)
            except OSError as exc:
                failures.append(f"{name}: {exc}")
                continue
            if status != 200 or job.get("state") != "done":
                failures.append(f"{name}: HTTP {status} state {job.get('state')}")

    threads = [threading.Thread(target=warm, args=(names[i::SERVER_WORKERS],)) for i in range(SERVER_WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(run.remaining())
    if any(thread.is_alive() for thread in threads) or failures:
        raise BenchError(f"server warm-up failed: {failures or 'timed out'}")
    return process, url, time.perf_counter() - start


def probe_server(run: Run) -> float:
    # A probe's spans go to scratch, so that they never overwrite the run's.
    probe, _, seconds = start_server(run, run.scratch / "probe-spans.jsonl")
    run.stop(probe)
    return seconds


def measure_http(run: Run, spans_file: Path) -> Tuple[Dict[str, object], List[float]]:
    setups = [probe_server(run) for _ in range(SETUP_PROBES_BEFORE)]
    server, url, seconds = start_server(run, spans_file)
    setups.append(seconds)
    out = run.scratch / "result.json"
    client = run.spawn(
        worker_argv(run, ["--url", url, "--server-pid", str(server.pid), "--out", str(out), "--spans", str(spans_file)])
    )
    run.wait_line(client, "READY")
    run.finish(client)
    result = json.loads(out.read_text())
    result["peak_rss_mb"] = common.peak_rss_mb(server.pid)
    run.stop(server)
    if server.returncode != 0:
        raise BenchError(f"server exited with status {server.returncode}")
    if run.args.trace:
        server_layers(result, spans_file)
    setups += [probe_server(run) for _ in range(SETUP_PROBES_AFTER)]
    return result, setups


def server_layers(result: Dict[str, object], spans_file: Path) -> None:
    """Per-layer metrics of the server, from its spans inside the client's traced window."""
    spans = tracing.read_spans(spans_file)
    start, end = result["window"]
    requests = {span.request for span in spans if span.parent is None and start <= span.start <= end}
    window = [span for span in spans if span.request in requests]
    counters = json.loads(spans_file.with_name(spans_file.name + ".counters.json").read_text())
    served = sum(1 for span in window if span.parent is None)
    scale = result["round_size"] / served if served else 0.0
    layers = tracing.layer_metrics(window, counters, served, window, counters, round_scale=scale)
    layers["server.client_gap_ms"] = result["client_gap_ms"]
    layers["obs.tracing_overhead"] = result["tracing_overhead"]
    result["layers"] = layers
    result["self_times"] = tracing.self_time_table(window)
    result["traced_wall_s"] = sum(span.seconds for span in window if span.parent is None)
    result["spans_file"] = str(spans_file)


# ---------------------------------------------------------------- report
def end_to_end(result: Dict[str, object], setups: List[float], workload: str) -> Dict[str, float]:
    """The end-to-end metrics, timings at the reference speed; raw timings go to ``result["raw"]``."""
    latencies = result["latencies"]
    if not latencies:
        raise BenchError("no request succeeded")
    block = workloads.CHAIN_TAIL_BLOCK if workload == "cold_chain" else common.TAIL_BLOCK
    summary = common.latency_summary(latencies, block)
    result["tail"] = summary
    # The median over rounds (in process) or one-second windows (HTTP), so
    # that a slow stretch of the machine moves a few of them, not the figure.
    # In-process clients have no think time, so a round's closed-loop rate is
    # the rate of the program's own busy time; over HTTP it is the wall rate.
    raw = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(result["rates"]),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
    }
    # On a virtual machine whose host also runs other machines, their load
    # can swing the speed of the same code by 2.5x for minutes at a time.
    # The speed probe slows with it, so dividing by the probe's median
    # slowness reports each timing at one fixed speed.
    slowness = statistics.median(result["speed_probes"]) / common.REFERENCE_LOOP_S
    result["raw"] = raw
    result["slowness"] = slowness
    return {
        "setup_s": raw["setup_s"] / slowness,
        "throughput_rps": raw["throughput_rps"] * slowness,
        "latency_p50_ms": raw["latency_p50_ms"] / slowness,
        "latency_tail_ms": raw["latency_tail_ms"] / slowness,
        "peak_rss_mb": result["peak_rss_mb"],
        "nrc_size": float(result["nrc_size"]),
    }


def print_report(args, result, setups, metrics, layers, attempted, failed) -> None:
    machine = result["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"machine: nproc={machine['nproc']} python={machine['python']} commit={machine['commit']} "
        f"speed_probe_s={result['slowness'] * common.REFERENCE_LOOP_S:.6f} "
        f"(median of {len(result['speed_probes'])}; slowness {result['slowness']:.4f} x the reference)"
    )
    print(f"set-ups (s, raw): {', '.join(f'{value:.4f}' for value in setups)}")
    print("end-to-end metrics (timings at the reference speed; raw = as measured):")
    for name, value in metrics.items():
        note = ""
        if name in result["raw"]:
            note = f"  raw {result['raw'][name]:.4f}"
        if name == "latency_tail_ms":
            tail = result["tail"]
            note += (
                f"  ({tail['tail_percentile']}, {tail['tail_samples_beyond']} beyond, median of "
                f"{tail['tail_blocks']} blocks; {tail['samples']} samples)"
            )
        print(f"{name:<18} {value:14.4f} {END_TO_END_UNITS[name]}{note}")
    rate = failed / attempted if attempted else 0.0
    print(f"{'error_rate':<18} {rate:14.4f} ratio  ({failed} failed of {attempted} attempted)")
    for error in result["phase"]["errors"]:
        print(f"  error: {error}")
    print("per-spec diagnostics:")
    print(f"  {'name':<26} {'requests':>8} {'latency_ms':>11} {'source':>8} {'attempts':>9} {'nrc_size':>9}")
    for row in result["diagnostics"]:
        print(
            f"  {row['name']:<26} {row['requests']:>8} {row['latency_ms']:>11.3f} {row['source']:>8} "
            f"{row['attempts']:>9} {row['nrc_size']:>9}"
        )
    if layers:
        wall = result["traced_wall_s"]
        print(f"self time by module (traced wall {wall:.4f} s, spans in {result['spans_file']}):")
        rows = sorted(result["self_times"].items(), key=lambda item: -item[1]["self_s"])
        for name, row in rows:
            share = 100.0 * row["self_s"] / wall if wall else 0.0
            print(f"  {name:<28} {int(row['calls']):>8} calls {row['self_s']:>10.4f} s {share:>6.1f} %")
        for name, value in layers.items():
            print(f"{name:<34} {value:14.6f}")


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "simplify.s":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio") or name == "obs.tracing_overhead":
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_present():
        print(f"error: no program to benchmark: {common.SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    common.OUT_DIR.mkdir(exist_ok=True)
    scratch = common.OUT_DIR / f"run-{os.getpid()}"
    scratch.mkdir()
    spans_file = common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    for stale in (spans_file, spans_file.with_name(spans_file.name + ".on")):
        stale.unlink(missing_ok=True)
    # The benchmark and every process it starts share one CPU: a client and
    # a server then hand each request over without waking another CPU, whose
    # delay on a shared virtual machine swings with the host's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args, scratch)
    try:
        measure = measure_http if args.workload == "warm_http" else measure_in_process
        result, setups = measure(run, spans_file)
        metrics = end_to_end(result, setups, args.workload)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = result["phase"]["attempted"]
    failed = result["phase"]["failed"]
    layers = result.get("layers", {})
    print_report(args, result, setups, metrics, layers, attempted, failed)
    if args.trace:
        reported = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
