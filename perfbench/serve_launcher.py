"""Traced ``repro serve``: install the benchmark's wrappers, then call the CLI's ``serve``.

The wrappers start disabled.  ``SIGUSR1`` turns recording on (and touches
``<spans>.on`` so the client knows); when the server stops on ``SIGINT`` the
spans go to ``--spans`` and the derived counters to ``<spans>.counters.json``.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/serve_launcher.py --spans FILE -- serve --port 0 --max-workers 2
"""

from __future__ import annotations

import argparse
import json
import signal
from pathlib import Path

import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="arguments of `python -m repro` after --")
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    spans = Path(args.spans)

    from repro.service import cli

    recorder = tracing.SpanRecorder()
    tracing.install(recorder, server=True)

    def start_recording(signum, frame) -> None:
        recorder.enabled = True
        spans.with_name(spans.name + ".on").touch()

    signal.signal(signal.SIGUSR1, start_recording)
    try:
        return cli.main(cli_args)
    finally:
        recorder.enabled = False
        recorder.write(spans)
        spans.with_name(spans.name + ".counters.json").write_text(json.dumps(recorder.counters))


if __name__ == "__main__":
    raise SystemExit(main())
