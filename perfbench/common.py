"""Shared helpers of the end-to-end benchmark: paths, statistics, machine facts.

Nothing here imports :mod:`repro`; the orchestrator (``run.py``) stays free of
the program so that its own start-up never counts as the program's set-up.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (spans, diagnostics, scratch caches).
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("cold_chain", "cold_catalog", "warm_http", "verify_bulk")
#: The workloads ``BENCHMARK.json`` gates.  ``verify_bulk`` runs on request: its
#: set-ups are the longest, and four workloads would leave each gated run too
#: short to steady on a shared host (see ``README.md``).
GATED_WORKLOADS = WORKLOADS[:3]

#: The speed probe runs a loop of this many iterations ...
SPEED_LOOP = 5000
#: ... which takes this many CPU seconds at the reference speed.  Timings are
#: reported at that speed: each is scaled by this over the run's median probe.
REFERENCE_LOOP_S = 0.001
#: Seconds between two speed probes while a run is timed.
SPEED_INTERVAL_S = 0.1

#: A tail percentile must leave at least this many samples beyond it ...
TAIL_SAMPLES_BEYOND = 10
#: ... within a block of this many consecutive requests (so p95).
TAIL_BLOCK = 200


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "service" / "cli.py").is_file()


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Scratch files of the program (and of ``tempfile``) stay in the checkout.
    env["TMPDIR"] = str(OUT_DIR)
    return env


def latency_summary(latencies: Sequence[float], block: int = TAIL_BLOCK) -> Dict[str, object]:
    """Median and tail of per-request latencies, in run order (seconds in, milliseconds out).

    The tail is the highest percentile that still leaves
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it.  It is taken in each block
    of ``block`` consecutive requests (by default the value of rank 190 of
    200, p95), and the median over the run's whole blocks is reported: one
    slow stretch of the machine then moves one block's tail, not the figure.
    A run of fewer than ``block`` requests is one block, whose tail is the
    value of rank ``n - 10`` (the maximum below 11 requests).
    """
    n = len(latencies)
    p50 = statistics.median(latencies)
    size = min(block, n)
    blocks = [sorted(latencies[first : first + size]) for first in range(0, n - size + 1, size)]
    rank = max(size - TAIL_SAMPLES_BEYOND, 1)
    tail = statistics.median(ordered[rank - 1] for ordered in blocks)
    return {
        "latency_p50_ms": p50 * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "tail_percentile": f"p{100.0 * rank / size:.1f}",
        "tail_samples_beyond": size - rank,
        "tail_blocks": len(blocks),
        "samples": n,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = Path("/proc") / (str(pid) if pid is not None else "self") / "status"
    try:
        text = path.read_text()
    except OSError:
        text = ""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")


def speed_probe() -> float:
    """CPU seconds of the thread running a fixed pure-Python loop (dict, str and int work).

    CPU time leaves out the time the thread waits for a CPU or a lock, so a
    probe measures only how fast the machine runs this code right now.
    """
    start = time.thread_time()
    table: Dict[str, int] = {}
    for i in range(SPEED_LOOP):
        key = str(i % 997)
        table[key] = table.get(key, 0) + i
    return time.thread_time() - start


class SpeedSampler:
    """Runs :func:`speed_probe` on a thread every :data:`SPEED_INTERVAL_S` while a run is timed.

    ``with SpeedSampler() as sampler: ...`` leaves the probes in ``sampler.samples``
    (at least one).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(SPEED_INTERVAL_S):
            self.samples.append(speed_probe())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(speed_probe())


def commit_id() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_context() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
    }

