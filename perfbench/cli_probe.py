"""Run one ``ssflow`` CLI command with spans, for traced ``cli_mix`` runs.

Usage: python cli_probe.py SPANS_FILE ARG...

Behaves like ``python -m ssflow ARG...`` (same output and exit code) and
writes to SPANS_FILE the time this script started, the ``import ssflow``
interval, the spans recorded around the command and the layer counts.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, clock  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = clock()
    import ssflow.cli

    t1 = clock()
    tracer = Tracer()
    tracer.op = 0
    tracer.patch()
    idx = tracer.begin(f"cli.{argv[0]}")
    try:
        rc = ssflow.cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.unpatch()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"started": STARTED, "import": [t0, t1], "spans": tracer.export(),
                       "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
