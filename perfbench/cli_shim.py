"""Run the epashrink CLI in this process with tracing installed.

Usage: python3 perfbench/cli_shim.py SPANS_JSON [CLI ARGS...]

Expects the checkout's src on PYTHONPATH, as run.py sets it. Times
``import epashrink.cli`` from a fresh interpreter, installs the same span
wrappers as the in-process workloads, calls ``epashrink.cli.main`` with the
remaining arguments and writes the spans to SPANS_JSON however the command
ends. The exit status and output are those of the CLI itself.
"""

import json
import sys
import time
from pathlib import Path


def run(spans_path: str, argv: list) -> None:
    start = time.perf_counter()
    import epashrink.cli

    imported = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    try:
        epashrink.cli.main(args=argv, prog_name="epashrink")
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2:])
